"""Tests of the benchmark harness itself (not of the program).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    Recorder,
    Span,
    coverage,
    inclusive_by_name,
    self_by_name,
    self_times,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _keep_environment():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


def wrapped_bindings(package: str) -> list[str]:
    """Names in *package* that still hold a span wrapper (should be none)."""
    found = []
    prefix = package + "."
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(prefix)):
            continue
        for key, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if hasattr(inner, "__perfbench_original__"):
                        found.append(f"{name}.{key}.{attr}")
    return found


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock)
    outer = rec.open("outer")  # 0 .. 10
    clock.now = 1.0
    a = rec.open("a")  # 1 .. 4
    clock.now = 2.0
    inner = rec.open("a")  # 2 .. 3: same name, nested
    clock.now = 3.0
    rec.close(inner)
    clock.now = 4.0
    rec.close(a)
    clock.now = 6.0
    b = rec.open("b")  # 6 .. 8
    clock.now = 8.0
    rec.close(b)
    clock.now = 10.0
    rec.close(outer)

    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert self_times(rec.spans) == [10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0]
    assert self_by_name(rec.spans) == {"outer": 5.0, "a": 3.0, "b": 2.0}
    # the nested "a" is inside the outer "a": counted once, not twice
    assert inclusive_by_name(rec.spans) == {"outer": 10.0, "a": 3.0, "b": 2.0}
    assert coverage(rec.spans, 0.0, 20.0) == 0.5
    assert coverage(rec.spans, 5.0, 7.0) == 1.0


def test_self_time_with_overlapping_children_counts_overlap_once():
    spans = [Span("p", 0.0, 10.0, None), Span("c", 1.0, 5.0, 0), Span("d", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == 10.0 - 5.0


def test_fastest_call_is_taken_at_the_reference_host_speed():
    ref = hostspeed.REFERENCE_S
    fast = workloads.Pass(False, 1, [(0.0, 1.0), (1.0, 3.0)], None, [ref, ref, ref])
    # twice as slow a host: the loop took twice as long, and so did the calls
    slow = workloads.Pass(False, 1, [(0.0, 3.0), (3.0, 5.0)], None, [2 * ref] * 3)
    assert slow.scale == 0.5
    assert run.best_s([fast, slow]) == 1.0 + 1.0


def test_timed_samples_host_speed_during_a_long_call(tmp_path):
    handler = signal.getsignal(signal.SIGALRM)
    workload = workloads.Workload(0, tmp_path)
    workload.timed(time.sleep, 0.6)
    # three before the call, and at least two from the timer inside it
    assert len(workload._host) >= hostspeed.SAMPLES_PER_CALL + 2
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timed_passes_keywords_through(tmp_path):
    workload = workloads.Workload(0, tmp_path)
    # headline() takes a ``samples`` keyword, as the sampler's own list is named
    assert workload.timed(lambda samples, fn: (samples, fn), samples=2, fn=3) == (2, 3)


def test_spans_must_close_in_order():
    rec = Recorder(FakeClock())
    first = rec.open("x")
    rec.open("y")
    with pytest.raises(RuntimeError):
        rec.close(first)


class Fake(workloads.Workload):
    """Cheap stand-in workload; ``outputs`` says what each pass returns."""

    name = "fake"
    op = "thing"
    why = "harness test"
    outputs = ("same", "same")

    def setup(self) -> None:
        from repro.kernels import SUITE

        self.fresh_cache()
        SUITE["va"].launch()

    def run_pass(self, index):
        from repro.kernels import SUITE

        self.timed(SUITE["va"].launch)
        return 10, self.outputs[index % len(self.outputs)]

    def checks(self, passes):
        return workloads.same_as_first(passes, "output")


def _main(monkeypatch, cls, trace: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, cls.name, cls)
    out = io.StringIO()
    with redirect_stdout(out):
        seconds = str(workloads.RUN_SECONDS)
        assert run.main(["--workload", cls.name, "--seconds", seconds, "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json(monkeypatch):
    untraced = _main(monkeypatch, Fake, 0)
    assert list(untraced) == ["correct", "attempted", "failed", "metrics"]
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    traced = _main(monkeypatch, Fake, 1)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert traced["metrics"]["kernels.launch_calls"]["value"] > 0


def test_tables_match_benchmark_json():
    assert run.END_TO_END == [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert layers.PER_LAYER == [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert {k: v.why for k, v in workloads.WORKLOADS.items()} == {
        w["name"]: w["why"] for w in SPEC["workloads"]
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_perturbed_output_is_counted_as_failed(monkeypatch):
    class Perturbed(Fake):
        name = "perturbed"
        outputs = ("same", "same", "same", "different")

    result = _main(monkeypatch, Perturbed, 0)
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["attempted"] == 3  # one pass-equality check per later pass


def _paper_failures(tmp_path, outputs) -> list[str]:
    paper = workloads.PaperSweep(0, tmp_path)
    passes = [workloads.Pass(i == 0, 1, [], out, []) for i, out in enumerate(outputs)]
    return [name for name, ok in paper.checks(passes) if not ok]


def test_perturbed_headline_fails_paper_checks(tmp_path):
    from repro.analysis.experiments import HeadlineResult

    good = HeadlineResult(**workloads.RECORDED_HEADLINE)
    assert _paper_failures(tmp_path, (good, good, good)) == []
    bad = dataclasses.replace(good, resume_reduction_pct=58.9)
    assert _paper_failures(tmp_path, (good, good, bad)) == [
        "HeadlineResult of pass 2 equals pass 0"
    ]


def test_simulated_figure_off_its_recorded_value_fails(tmp_path):
    """A moved simulated figure fails a check even inside the shape bounds."""
    from repro.analysis.experiments import HeadlineResult

    recorded = workloads.RECORDED_HEADLINE["resume_reduction_pct"]
    moved = HeadlineResult(
        **{**workloads.RECORDED_HEADLINE, "resume_reduction_pct": recorded + 1e-9}
    )
    assert _paper_failures(tmp_path, (moved, moved)) == [
        f"resume_reduction_pct is {recorded!r} as recorded"
    ]


def test_serve_p99_claim_is_checked_on_the_claim_run(tmp_path, monkeypatch):
    """The p99 order comes from ``serve_claim``, not the timed reports."""
    claim = ((0.5, 90.0, 100.0), (0.8, 101.0, 100.0))  # (load, ctxback, baseline)
    monkeypatch.setattr(workloads, "serve_claim", lambda seed: claim)
    fleet = workloads.ServeFleet(5, tmp_path)  # a seed with no recorded figures
    reports = ("plain", "migrate", {"oracle": {"ok": True}})
    passes = [workloads.Pass(i % 2 == 0, 1, [], reports, []) for i in range(2)]
    assert [name for name, ok in fleet.checks(passes) if not ok] == [
        f"ctxback p99 <= baseline p99 at load 0.8, {workloads.CLAIM_REQUESTS} requests a cell"
    ]


def test_wrappers_are_removed_after_the_traced_run(monkeypatch):
    from repro.analysis.engine import ExperimentEngine
    from repro.kernels import SUITE

    originals = {key: vars(bench)["launch"] for key, bench in SUITE.items()}
    engine_map = vars(ExperimentEngine)["map"]

    recorder = Recorder()
    patcher = layers.install(recorder)
    try:
        assert wrapped_bindings("repro")  # the traced run is really wrapped
        SUITE["va"].launch()
        assert [s.name for s in recorder.spans] == ["kernels.launch"]
    finally:
        patcher.restore()
    assert wrapped_bindings("repro") == []
    assert {key: vars(bench)["launch"] for key, bench in SUITE.items()} == originals
    assert vars(ExperimentEngine)["map"] is engine_map

    _main(monkeypatch, Fake, 1)
    assert wrapped_bindings("repro") == []
    assert {key: vars(bench)["launch"] for key, bench in SUITE.items()} == originals
