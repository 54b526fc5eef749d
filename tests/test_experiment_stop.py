"""The experiment stop rule: a profile run ends once its measurements are final.

``run_preemption_experiment(..., stop_when_measured=True)`` returns as soon
as the resume is delivered, the controller is disarmed and every target
warp has its ``resume_done_cycle``.  Nothing after that point may change a
per-warp measurement, so the stopped run must measure exactly what the run
to completion measures.  ``experiment_profile_for`` opts in only for plain
profiles; verified, traced and faulted runs still run out the kernel.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.analysis.engine as engine
from repro.analysis.engine import _launch, experiment_profile_for, prepared_for
from repro.analysis.experiments import _signal_points
from repro.faults.plan import FaultPlan
from repro.kernels.suite import SUITE
from repro.mechanisms import ALL_MECHANISMS
from repro.sim import GPUConfig
from repro.sim.gpu import run_preemption_experiment
from tests.test_engine_cache import cache_at

HEADLINE_CONFIG = GPUConfig.radeon_vii_contended()


def _stopped_and_full(key: str, mechanism: str, config: GPUConfig):
    """(stopped, full) result pairs at the headline's signal points."""
    launch = _launch(key, config, None)
    prepared = prepared_for(key, mechanism, config)
    for dyn in _signal_points(key, config, 2):
        runs = [
            run_preemption_experiment(
                launch.spec(), prepared, config, dyn, verify=False,
                stop_when_measured=stop,
            )
            for stop in (True, False)
        ]
        yield dyn, runs[0], runs[1]


def _assert_same_measurements(config: GPUConfig, keys) -> None:
    stopped_cycles = full_cycles = 0
    for key in keys:
        for mechanism in ALL_MECHANISMS:
            for dyn, stopped, full in _stopped_and_full(key, mechanism, config):
                assert stopped.measurements == full.measurements, (
                    key, mechanism, dyn,
                )
                assert stopped.measurements, (key, mechanism, dyn)
                assert stopped.total_cycles <= full.total_cycles
                stopped_cycles += stopped.total_cycles
                full_cycles += full.total_cycles
    # the rule must actually engage, or the test proves nothing
    assert stopped_cycles < full_cycles


def test_stopped_profiles_equal_full_runs_on_the_fast_core():
    """All 12 kernels x 6 mechanisms x the headline's signal points."""
    _assert_same_measurements(HEADLINE_CONFIG, sorted(SUITE))


def test_stopped_profiles_equal_full_runs_on_the_reference_core():
    config = dataclasses.replace(HEADLINE_CONFIG, core="reference")
    _assert_same_measurements(config, ["va", "km"])


def test_stop_rule_refuses_verification():
    config = HEADLINE_CONFIG
    launch = _launch("va", config, None)
    prepared = prepared_for("va", "ctxback", config)
    with pytest.raises(ValueError):
        run_preemption_experiment(
            launch.spec(), prepared, config, 72, verify=True,
            stop_when_measured=True,
        )


#: ``total_cycles`` of va at signal 72 under the headline config, run to
#: completion, as recorded before the stop rule existed
FULL_RUN_CYCLES = {"ctxback": 1995166, "ckpt": 2286375, "baseline": 2214994}


@pytest.mark.parametrize("mechanism", sorted(FULL_RUN_CYCLES))
def test_only_plain_profiles_stop_early(monkeypatch, tmp_path, mechanism):
    """A verified, traced or faulted profile still runs the kernel out and
    reports the recorded ``total_cycles``; a plain one stops early with the
    same measurements."""
    runs = []
    original = engine.run_preemption_experiment

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        runs.append(result.total_cycles)
        return result

    monkeypatch.setattr(engine, "run_preemption_experiment", spy)
    profiles = {}
    with cache_at(tmp_path):  # every profile below must really run
        for label, verify, extra in (
            ("plain", False, {}),
            ("verify", True, {}),
            ("trace", False, {"trace": True}),
            ("faults", False, {"faults": FaultPlan()}),
        ):
            profiles[label] = experiment_profile_for(
                "va", mechanism, HEADLINE_CONFIG, None, 72, 2000, verify, **extra
            )
            assert len(runs) == len(profiles), label
            if label == "plain":
                assert runs[-1] < FULL_RUN_CYCLES[mechanism]
            else:
                assert runs[-1] == FULL_RUN_CYCLES[mechanism], label
    assert profiles["trace"]["total_cycles"] == FULL_RUN_CYCLES[mechanism]
    for label in ("verify", "trace", "faults"):
        for field in ("latency", "resume", "context_bytes", "verified"):
            assert profiles[label][field] == profiles["plain"][field], (
                label, field,
            )
