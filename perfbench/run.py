"""Repository benchmark: one workload per run, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics; ``--trace 1`` repeats the same sequence once untraced and once
with span wrappers around the program's layer seams, and prints the
per-layer metrics plus the tracing overhead.  Either way the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The workload runs in this process with the experiment engine serial, on
fresh artifact-cache directories inside ``.perfbench_tmp/`` at the
repository root, which is removed again on exit, under a fixed
``PYTHONHASHSEED``; child interpreters, one at a time, time the import
and repeat cold passes.  Reported times are scaled to a reference host
speed (``hostspeed.REFERENCE_S``).  The benchmark never writes
``BENCH_engine.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

#: set-ups and imports per run; set-up time is the median import plus the
#: median set-up.  A set-up is timed in this process and takes a few ms,
#: except on ``serve_fleet``; an import takes a child interpreter and
#: about 0.5 s, and repeats of it vary the most.
SETUPS = 3
IMPORTS = 5

#: (name, unit, better) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cold_s", "s", "lower"),
    ("warm_s", "s", "lower"),
    ("warm_us_per_op", "us/op", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _prepare_process(scratch: Path) -> None:
    """Make the program importable from the checkout and isolate it from
    the user's environment: no ``REPRO_*`` setting leaks in, the engine is
    serial, and the default cache directory is in the run's scratch space."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_times() -> list[float]:
    """Wall seconds to import the program and the benchmark's workloads, in
    ``IMPORTS`` fresh child interpreters, one after the other (this process
    has imported them already).  They are not scaled: the import's speed
    does not follow the reference loop's (see "Noise" in README.md).  The
    children inherit the isolated environment of :func:`_prepare_process`."""
    paths = [str(ROOT / "src"), str(HERE)]
    code = (
        f"import sys, time; sys.path[:0] = {paths!r}; t = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t)"
    )
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                timeout=120,
            ).stdout
        )
        for _ in range(IMPORTS)
    ]


def _timed_setup(workload) -> tuple[float, float]:
    """One set-up: (wall seconds, seconds at the reference host speed)."""
    from hostspeed import SAMPLES_PER_CALL, host_samples, sampled, scale_for

    samples: list[float] = []
    start, end, _ = sampled(samples, workload.setup)
    samples += host_samples(SAMPLES_PER_CALL)
    return end - start, (end - start) * scale_for(samples)


def child_passes(workload, count: int) -> list:
    """Passes 0 (cold) and 1 (warm) of *workload* in each of *count* fresh
    child processes, one after the other.  The program keeps what it
    compiles in process memory, so a process has only one genuinely cold
    pass; and repeats from other processes, tens of seconds apart, are
    slowed by different spells of interference from the shared host."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload.name, "--seed", str(workload.seed), "--child",
    ]
    return [
        done
        for _ in range(count)
        for done in pickle.loads(bytes.fromhex(
            subprocess.run(
                command, capture_output=True, text=True, check=True, timeout=170
            ).stdout.splitlines()[-1]
        ))
    ]


def measure(workload, passes: int, children: int = 0) -> dict:
    """``SETUPS`` set-ups, *passes* passes, two passes in each of *children*
    child processes, then the output checks."""
    setups, setups_s = zip(*(_timed_setup(workload) for _ in range(SETUPS)))
    done = [workload.run(index) for index in range(passes)]
    done += child_passes(workload, children)
    checks = workload.checks(done)
    workload.close_cache()
    attempted, failed = workload.operations()
    return {
        "setups": list(setups),  # wall seconds
        "setups_s": list(setups_s),  # at the reference host speed
        "passes": done,
        "checks": checks,
        "attempted": attempted + len(checks),
        "failed": failed + sum(1 for _, ok in checks if not ok),
        "simulated": workload.simulated(done),
    }


def best_s(passes: list) -> float:
    """Per timed call, the fastest of *passes* at the reference host speed,
    summed.  The passes repeat the same work and interference from the
    shared host only ever slows a call down, so the fastest repeat is the
    steadiest estimate of what the work costs."""
    per_call = zip(*([(end - start) * p.scale for start, end in p.intervals] for p in passes))
    return sum(min(calls) for calls in per_call)


def end_to_end(run: dict, imports: list[float]) -> dict[str, float]:
    """The end-to-end metrics; every time but the import's is at the
    reference host speed."""
    cold = [p for p in run["passes"] if p.cold]
    warm = [p for p in run["passes"] if not p.cold]
    warm_s = best_s(warm)
    return {
        "setup_s": statistics.median(imports) + statistics.median(run["setups_s"]),
        "cold_s": best_s(cold),
        "warm_s": warm_s,
        "warm_us_per_op": 1e6 * warm_s / warm[0].ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _covered(spans, passes) -> float:
    """Percent of the passes' timed intervals that top-level spans cover."""
    from spans import coverage

    covered = total = 0.0
    for p in passes:
        for start, end in p.intervals:
            covered += coverage(spans, start, end) * (end - start)
            total += end - start
    return 100.0 * covered / total if total else 0.0


def _total(run: dict) -> float:
    return sum(run["setups"]) + sum(p.wall_s for p in run["passes"])


def traced_layers(make, passes: int) -> tuple[dict, dict, list[dict]]:
    """The untraced sequence, then the same sequence traced; returns the
    per-layer metrics, the span self-time table and both runs."""
    import layers
    from repro.analysis.cache import get_cache
    from spans import Recorder, self_by_name

    plain = measure(make(), passes)
    recorder = Recorder()
    workload = make()
    patcher = layers.install(recorder)
    try:
        traced = measure(workload, passes)
    finally:
        patcher.restore()

    done = traced["passes"]
    extra = {
        "engine.units": sum(e.report.units for e in workload.engines),
        "engine.retries": sum(e.report.retries for e in workload.engines),
        "engine.failures": sum(e.report.failures for e in workload.engines),
        **{f"cache.{key}": workload.cache_counts[key] for key in ("hits", "misses", "stores")},
        "cache.bytes_on_disk": sum(v["bytes"] for v in get_cache().entries().values()),
        "trace.overhead_pct": 100.0 * (_total(traced) / _total(plain) - 1.0),
        "trace.coverage_cold_pct": _covered(recorder.spans, [p for p in done if p.cold]),
        "trace.coverage_warm_pct": _covered(recorder.spans, [p for p in done if not p.cold]),
        "failed_frac": (plain["failed"] + traced["failed"])
        / (plain["attempted"] + traced["attempted"]),
        **workload.counters(done),
        **traced["simulated"],
    }
    return layers.layer_metrics(recorder, extra), self_by_name(recorder.spans), [plain, traced]


def _print_run(run: dict, label: str) -> None:
    setups = ", ".join(f"{s:.3f}" for s in run["setups"])
    passes = ", ".join(
        f"{p.wall_s:.3f} ({'cold' if p.cold else 'warm'}, {p.ops} ops)" for p in run["passes"]
    )
    print(f"{label}: set-ups {setups} s; passes {passes} s")


def _print_simulated(simulated: dict) -> None:
    from workloads import PAPER

    if not simulated:
        return
    print("simulated time (deterministic; the simulator is not validated against")
    print("hardware, so the paper's abstract is the only reference):")
    for name, value in simulated.items():
        line = f"  {name:28s} {value:12.4f}"
        if name in PAPER:
            line += f"   paper {PAPER[name]:5.1f}   diff {value - PAPER[name]:+7.3f}"
        print(line)


def run_workload(cls, args, scratch: Path) -> dict:
    """Measure one workload and print its report; returns the JSON result."""
    print(f"workload {cls.name}: {cls.why}")
    print(f"seed {args.seed}, one op = one {cls.op}, engine jobs=1")
    passes = cls.passes_for(args.seconds)

    def make():
        return cls(args.seed, scratch)

    if args.trace:
        import layers

        metrics, self_time, runs = traced_layers(make, passes)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        _print_run(runs[0], "untraced")
        _print_run(runs[1], "traced")
        print("self time by span (traced run, wall s):")
        for name, seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
            print(f"  {name:32s} {seconds:10.4f}")
    else:
        imports = import_times()
        run = measure(make(), passes, cls.children)
        runs = [run]
        metrics = end_to_end(run, imports)
        units = {name: unit for name, unit, _ in END_TO_END}
        _print_run(run, "run")
        print("imports " + ", ".join(f"{s:.3f}" for s in imports) + " s")
        scales = ", ".join(f"{p.scale:.3f}" for p in run["passes"])
        print(f"host speed: pass times x {scales}")
        for name, unit, better in END_TO_END:
            print(f"  {name:28s} {metrics[name]:14.4f} {unit:8s} {better} is better")
    _print_simulated(runs[-1]["simulated"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"operations {attempted}, failed {failed} (failed_frac {failed / attempted:.4f})")
    for run in runs:
        for name, ok in run["checks"]:
            if not ok:
                print(f"  CHECK FAILED: {name}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run set-up and passes 0 and 1 only, print the pickled passes
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scratch = SCRATCH / f"run-{os.getpid()}"
    _prepare_process(scratch)
    from repro.analysis.cache import configure_cache
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.child:
            workload = WORKLOADS[args.workload](args.seed, scratch)
            workload.setup()
            print(pickle.dumps([workload.run(0), workload.run(1)]).hex())
        else:
            print(json.dumps(run_workload(WORKLOADS[args.workload], args, scratch)))
    finally:
        # a disabled cache writes nothing at exit into the removed directory
        configure_cache(root=scratch, enabled=False)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # absent, or another run still uses it
            pass
    return 0


#: personality(2) flag that turns off address-space layout randomisation
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> bool:
    """Ask for a fixed hash seed and no address-space layout randomisation;
    True when the process must re-execute to get them.  Both move memory
    use between runs: peak RSS of one workload took either of two values
    8-20 MB apart.  Where randomisation cannot be turned off, only the hash
    seed is fixed."""
    import ctypes

    restart = os.environ.get("PYTHONHASHSEED") != "0"
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        personality = ctypes.CDLL(None).personality
    except (OSError, AttributeError):
        return restart
    current = personality(0xFFFFFFFF)
    if current != -1 and not current & ADDR_NO_RANDOMIZE:
        restart |= personality(current | ADDR_NO_RANDOMIZE) != -1
    return restart


if __name__ == "__main__":
    if _fixed_layout():
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
