"""Parallel experiment engine: independent work units over the figure grid.

Every figure/table of the evaluation decomposes into work units over
``(kernel, mechanism, config, signal sample)`` — each unit prepares (or
cache-loads) one kernel under one mechanism and runs one deterministic
simulation.  Units share *no* mutable state: all cross-unit reuse flows
through the content-addressed :mod:`~repro.analysis.cache`, so they are
embarrassingly parallel (the PhoenixOS observation: independent
checkpoint-style work units overlap freely).

:class:`ExperimentEngine` fans units out with a
``concurrent.futures.ProcessPoolExecutor``, one future per unit, and merges
results **by submission index** — every unit is a pure function of its
content-hashed inputs, so the merged results are bit-identical regardless
of worker count, cache temperature, retries or completion order; the
figure drivers in :mod:`~repro.analysis.experiments` rely on that for the
serial-vs-parallel equivalence guarantee.

Fault tolerance: each future carries a configurable timeout
(``REPRO_UNIT_TIMEOUT`` / ``--unit-timeout``); units whose workers crash
(``BrokenProcessPool``), hang past the timeout, raise, or return
unpicklable results are retried with exponential backoff up to
``REPRO_UNIT_RETRIES`` times in a fresh pool.  Units that exhaust their
retries fall back to a serial in-process run (except pure timeouts, which
cannot be bounded in-process); units that still fail are handled per the
:class:`FailurePolicy` — ``FAIL_FAST`` aborts the run with an
:class:`EngineFailure`, ``COLLECT`` substitutes a :class:`UnitFailure`
marker so figure drivers can emit partial tables with explicit FAILED
cells.  All failure traffic is counted in :class:`EngineReport`.

Worker count resolution: explicit ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (serial, in-process).  The CLI
exposes ``--jobs`` on every experiment command.

Artifact accessors (:func:`prepared_for`, :func:`weights_for`,
:func:`reference_cycles_for`, :func:`experiment_profile_for`) live here and
replace the per-process dict caches ``experiments.py`` used to keep: they
key on the *full* content of kernel + configs, so presets sharing a warp
size (``radeon_vii`` vs ``radeon_vii_contended``) can no longer alias.
Prepared kernels key on exactly what compiling reads — the register-file
spec, not the whole config — so those two presets share one compile.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import signal
import time
from pathlib import Path
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..ctxback.flashback import CtxBackConfig
from ..kernels.suite import SUITE
from ..mechanisms import make_mechanism
from ..mechanisms.base import PreparedKernel
from ..mechanisms.combined import Combined
from ..mechanisms.ctxback import CtxBack
from ..sim.config import GPUConfig
from ..sim.gpu import run_preemption_experiment, run_reference
from .cache import canonical, describe_kernel, get_cache
from .metrics import pc_histogram, weighted_context_bytes

JOBS_ENV = "REPRO_JOBS"
UNIT_TIMEOUT_ENV = "REPRO_UNIT_TIMEOUT"
UNIT_RETRIES_ENV = "REPRO_UNIT_RETRIES"
FAILURE_POLICY_ENV = "REPRO_FAILURE_POLICY"
#: test-only failpoint: a marker-file path; the first pool worker to find
#: the file missing creates it and SIGKILLs itself (fault-injection tests)
FAULT_KILL_ENV = "REPRO_FAULT_KILL_MARKER"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (1 — serial — if unset/garbage)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def resolve_jobs(jobs: int | None) -> int:
    """Effective worker count: the explicit argument wins over the env."""
    return max(1, jobs) if jobs is not None else default_jobs()


class FailurePolicy(enum.Enum):
    """What to do with a unit that failed every retry *and* the serial
    fallback: abort the whole run, or keep going and mark the cell."""

    FAIL_FAST = "fail-fast"
    COLLECT = "collect"


class EngineFailure(RuntimeError):
    """A work unit failed permanently under ``FailurePolicy.FAIL_FAST``."""


@dataclass(frozen=True)
class UnitFailure:
    """Placeholder result for a permanently-failed unit (``COLLECT``);
    figure drivers render these as explicit FAILED cells."""

    unit: str  # repr of the failed work unit
    error: str  # last error observed ("KindOfError: message")
    attempts: int  # pool attempts consumed before giving up


@dataclass(frozen=True)
class EngineOptions:
    """GPUConfig-independent fault-tolerance knobs of one engine."""

    #: seconds a unit may run in the pool before its wave is aborted and it
    #: is retried (None: wait forever — the pre-fault-tolerance behaviour)
    unit_timeout: float | None = None
    #: pool re-attempts per unit before the serial in-process fallback
    retries: int = 2
    failure_policy: FailurePolicy = FailurePolicy.FAIL_FAST
    #: base of the exponential backoff between retry waves (doubles per
    #: attempt, capped at 2 s); kept tiny so tests stay fast
    retry_backoff_s: float = 0.05

    @staticmethod
    def from_env(
        unit_timeout: float | None = None,
        retries: int | None = None,
        failure_policy: FailurePolicy | str | None = None,
    ) -> "EngineOptions":
        """Environment-driven defaults, overridden by explicit arguments."""
        if unit_timeout is None:
            raw = os.environ.get(UNIT_TIMEOUT_ENV, "").strip()
            try:
                unit_timeout = float(raw) if raw else None
            except ValueError:
                unit_timeout = None
            if unit_timeout is not None and unit_timeout <= 0:
                unit_timeout = None
        if retries is None:
            raw = os.environ.get(UNIT_RETRIES_ENV, "").strip()
            try:
                retries = max(0, int(raw)) if raw else 2
            except ValueError:
                retries = 2
        if failure_policy is None:
            failure_policy = os.environ.get(FAILURE_POLICY_ENV, "").strip() or (
                FailurePolicy.FAIL_FAST
            )
        if isinstance(failure_policy, str):
            try:
                failure_policy = FailurePolicy(failure_policy.lower())
            except ValueError:
                failure_policy = FailurePolicy.FAIL_FAST
        return EngineOptions(
            unit_timeout=unit_timeout,
            retries=retries,
            failure_policy=failure_policy,
        )


# -- artifact accessors (cache-backed) -------------------------------------------


def _resolved_iterations(key: str, iterations: int | None) -> int:
    # `is None`, not truthiness: an explicit iterations=0 is a legitimate
    # request (degenerate launch), not "use the suite default"
    return SUITE[key].default_iterations if iterations is None else iterations


def _launch(key: str, config: GPUConfig, iterations: int | None):
    return SUITE[key].launch(
        warp_size=config.warp_size,
        iterations=_resolved_iterations(key, iterations),
    )


@functools.lru_cache(maxsize=None)
def _kernel_description(key: str, warp_size: int) -> dict:
    """:func:`describe_kernel` of one benchmark kernel, memoized in-process.

    A benchmark builds its kernel from the warp size alone (iterations
    only change the launch arguments), so cache keys need not rebuild it.
    Shared between callers: treat the returned dict as read-only.
    """
    return describe_kernel(SUITE[key].build(warp_size))


def _base_parts(key: str, config: GPUConfig, iterations: int | None) -> dict:
    return {
        "bench": key,
        "kernel": _kernel_description(key, config.warp_size),
        "config": canonical(config),
        "iterations": _resolved_iterations(key, iterations),
    }


def _mechanism_parts(mechanism: str, ctx_config: CtxBackConfig | None) -> dict:
    return {
        "mechanism": mechanism,
        "pass_config": canonical(ctx_config or CtxBackConfig()),
    }


def _compile_config(config: GPUConfig) -> GPUConfig:
    """The part of *config* a mechanism's compiler side reads: the
    register-file spec.  Timing, core and tracing fields are reset to
    their defaults, so presets that differ only there share artifacts."""
    return GPUConfig(rf_spec=config.rf_spec)


def prepared_parts(
    key: str,
    mechanism: str,
    config: GPUConfig,
    ctx_config: CtxBackConfig | None = None,
) -> dict:
    """Cache-key parts of a prepared kernel: (kernel description, register
    file spec, mechanism, pass config) — everything compiling reads."""
    compile_config = _compile_config(config)
    parts = {
        "bench": key,
        "kernel": _kernel_description(key, compile_config.warp_size),
        "config": canonical(compile_config),
    }
    parts.update(_mechanism_parts(mechanism, ctx_config))
    return parts


def prepared_for(
    key: str,
    mechanism: str,
    config: GPUConfig,
    iterations: int | None = None,
    ctx_config: CtxBackConfig | None = None,
) -> PreparedKernel:
    """Cached mechanism preparation for one benchmark kernel.

    With *ctx_config* given, the CTXBack pass runs under that variant
    configuration (the ablation study) instead of the mechanism registry's
    defaults.  The artifact is keyed and built on :func:`prepared_parts`
    alone: *iterations* and every non-``rf_spec`` field of *config* shape
    the run, never the compiled kernel.  ``combined`` is composed from the
    cached ``ctxback`` artifact rather than rerunning the CTXBack pass.
    """
    compile_config = _compile_config(config)

    def build() -> PreparedKernel:
        kernel = SUITE[key].build(compile_config.warp_size)
        if ctx_config is not None:
            return CtxBack(ctx_config).prepare(kernel, compile_config)
        if mechanism == "combined":
            ctx = prepared_for(key, "ctxback", compile_config)
            return Combined().prepare(kernel, compile_config, ctx=ctx)
        return make_mechanism(mechanism).prepare(kernel, compile_config)

    return get_cache().get_or_create(
        "prepared", prepared_parts(key, mechanism, config, ctx_config), build
    )


def weights_for(
    key: str, config: GPUConfig, iterations: int | None = None
) -> dict[int, int]:
    """Cached dynamic PC histogram for one benchmark kernel.

    Keyed on :func:`_base_parts`, like the reference and experiment
    profiles, so a cache hit builds no launch; only a miss runs
    :func:`~repro.analysis.metrics.pc_histogram`.  Launches built by hand
    have no benchmark name and go through
    :func:`~repro.analysis.metrics.dynamic_pc_weights`, keyed on the launch
    content.
    """

    def build() -> dict[int, int]:
        return pc_histogram(_launch(key, config, iterations), config)

    return get_cache().get_or_create(
        "weights", _base_parts(key, config, iterations), build
    )


def reference_cycles_for(
    key: str,
    config: GPUConfig,
    iterations: int | None = None,
    mechanism: str | None = None,
) -> int:
    """Cached reference-run profile: cycles to completion, clean
    (*mechanism* None) or with a mechanism's instrumentation active."""
    parts = _base_parts(key, config, iterations)
    parts["instrumented"] = (
        _mechanism_parts(mechanism, None) if mechanism is not None else None
    )

    def build() -> int:
        launch = _launch(key, config, iterations)
        prepared = (
            prepared_for(key, mechanism, config, iterations)
            if mechanism is not None
            else None
        )
        return run_reference(launch.spec(), config, prepared=prepared).cycles

    return get_cache().get_or_create("reference", parts, build)


def experiment_profile_for(
    key: str,
    mechanism: str,
    config: GPUConfig,
    iterations: int | None,
    signal_dyn: int,
    resume_gap: int,
    verify: bool,
    trace: bool = False,
    faults=None,
) -> dict:
    """Cached preemption-experiment profile for one signal sample.

    With ``trace=True`` the simulation runs under the structured tracer
    (:mod:`repro.obs`) and the profile carries the per-warp latency
    breakdown aggregate plus the event count; the trace flag is part of
    the cache key, so traced and untraced profiles never alias.  Tracing
    cannot change the measured cycles (the observer-effect guard in CI).

    With *faults* (a :class:`~repro.faults.plan.FaultPlan`) the run is
    fault-injected and the profile carries the recovery counters and
    degraded-warp list; the plan content is part of the cache key, so
    faulted and clean profiles never alias either.

    A plain profile (no *verify*, *trace* or *faults*) keeps only the
    measurements, so its run stops once they are final
    (``stop_when_measured``); the other three read the finished run.
    """
    parts = _base_parts(key, config, iterations)
    parts.update(_mechanism_parts(mechanism, None))
    parts.update(
        {"signal_dyn": signal_dyn, "resume_gap": resume_gap, "verify": verify}
    )
    if trace:
        parts["trace"] = True
    if faults is not None:
        parts["faults"] = canonical(faults)

    def run() -> dict:
        from ..obs import aggregate_breakdowns

        launch = _launch(key, config, iterations)
        prepared = prepared_for(key, mechanism, config, iterations)
        run_config = (
            dataclasses.replace(config, trace_events=True) if trace else config
        )
        result = run_preemption_experiment(
            launch.spec(),
            prepared,
            run_config,
            signal_dyn=signal_dyn,
            resume_gap=resume_gap,
            verify=verify,
            faults=faults,
            stop_when_measured=not (verify or trace or faults is not None),
        )
        profile = {
            "latency": result.mean_latency,
            "resume": result.mean_resume,
            "context_bytes": result.mean_context_bytes,
            "verified": result.verified,
        }
        if trace:
            profile["total_cycles"] = result.total_cycles
            profile["events"] = len(result.trace.events)
            profile["breakdown"] = aggregate_breakdowns(result.breakdowns)
        if result.faults is not None:
            profile["recovery"] = result.faults.stats.as_dict()
            profile["degraded_warps"] = [
                m.warp_id for m in result.measurements if m.degraded
            ]
            # None means "no recovery data" and is excluded from the sum;
            # a genuine 0 (zero-cost fallback) still counts as a sample
            profile["recovery_cycles"] = sum(
                m.recovery_cycles
                for m in result.measurements
                if m.recovery_cycles is not None
            )
        return profile

    return get_cache().get_or_create("experiment", parts, run)


# -- work units ------------------------------------------------------------------


@dataclass(frozen=True)
class PrepareUnit:
    """Warm the prepared-kernel (and optionally weights) cache entries."""

    key: str
    mechanism: str
    config: GPUConfig
    iterations: int | None = None

    def run(self) -> bool:
        prepared_for(self.key, self.mechanism, self.config, self.iterations)
        return True


@dataclass(frozen=True)
class WeightsUnit:
    key: str
    config: GPUConfig
    iterations: int | None = None

    def run(self) -> dict[int, int]:
        return weights_for(self.key, self.config, self.iterations)


@dataclass(frozen=True)
class ReferenceUnit:
    key: str
    config: GPUConfig
    iterations: int | None = None
    mechanism: str | None = None

    def run(self) -> int:
        return reference_cycles_for(
            self.key, self.config, self.iterations, self.mechanism
        )


@dataclass(frozen=True)
class ContextUnit:
    """Execution-weighted context bytes of one (kernel, mechanism)."""

    key: str
    mechanism: str
    config: GPUConfig
    iterations: int | None = None
    ctx_config: CtxBackConfig | None = None

    def run(self) -> float:
        prepared = prepared_for(
            self.key, self.mechanism, self.config, self.iterations, self.ctx_config
        )
        weights = weights_for(self.key, self.config, self.iterations)
        return weighted_context_bytes(prepared, weights)


@dataclass(frozen=True)
class ExperimentUnit:
    """One preemption experiment: (kernel, mechanism, signal sample).

    ``trace=True`` collects the per-unit latency-breakdown aggregate
    through the artifact cache (see :func:`experiment_profile_for`); the
    engine folds the aggregates of every traced unit into its report.
    """

    key: str
    mechanism: str
    config: GPUConfig
    signal_dyn: int
    resume_gap: int = 2000
    iterations: int | None = None
    verify: bool = False
    trace: bool = False
    #: optional :class:`~repro.faults.plan.FaultPlan`; part of the unit's
    #: cache identity (frozen + picklable, so it pools like everything else)
    faults: object | None = None

    def run(self) -> dict:
        return experiment_profile_for(
            self.key,
            self.mechanism,
            self.config,
            self.iterations,
            self.signal_dyn,
            self.resume_gap,
            self.verify,
            self.trace,
            self.faults,
        )


@dataclass(frozen=True)
class ServeUnit:
    """One GPU's serving shard under one mechanism at one load level.

    The costs are pre-calibrated (µs) so workers never re-run cycle-level
    experiments; the shard itself travels as a tuple of
    ``(arrival_us, tenant_index)`` pairs — hashable, picklable, and
    directly canonicalizable into the ``serve`` cache key.  ``load`` and
    ``gpu`` ride along for reporting; the cache identity is the shard
    content + tenant mix + costs (see
    :func:`repro.serve.fleet.serve_shard_profile`).
    """

    mechanism: str
    load: float
    gpu: int
    requests: tuple  # ((arrival_us, tenant_index), ...)
    tenants: tuple  # (repro.serve.Tenant, ...)
    preempt_us: float
    resume_us: float
    #: live-migration inputs (``()`` disables migration for this shard);
    #: costs travel flattened so the frozen unit stays picklable without
    #: importing the serve layer at module scope
    migrations: tuple = ()  # ((time_us, "out"|"in"), ...)
    mig_snapshot_us: float = 0.0
    mig_transfer_us: float = 0.0
    mig_restore_us: float = 0.0

    def run(self) -> dict:
        # lazy: repro.serve.fleet imports this module at its top level
        from ..serve.fleet import serve_shard_profile
        from ..serve.migration import MigrationCosts
        from ..serve.scheduler import MechanismCosts

        costs = MechanismCosts(
            mechanism=self.mechanism,
            preempt_us=self.preempt_us,
            resume_us=self.resume_us,
        )
        migration = (
            MigrationCosts(
                snapshot_us=self.mig_snapshot_us,
                transfer_us=self.mig_transfer_us,
                restore_us=self.mig_restore_us,
            )
            if self.migrations
            else None
        )
        return serve_shard_profile(
            self.requests, self.tenants, costs, self.gpu,
            migrations=self.migrations, migration=migration,
        )


@dataclass(frozen=True)
class ServeChaosUnit:
    """One GPU's shard under the fleet fault model (chaos serving).

    The fleet-coupled planning — crash re-queues, failover restores,
    watchdog migrations — already happened in the parent
    (:func:`repro.serve.resilience.plan_resilience`), so this unit is a
    pure function of its own fields: the 5-tuple request stream
    ``(arrival_us, tenant, rid, original_arrival_us, attempts)``, the op
    stream, the crash cutoff, and the admission/checkpoint knobs.  The
    admission policy travels as its flat tuple and ``crash_at_us < 0``
    means "no crash", keeping the frozen unit picklable and
    canonicalizable without importing the serve layer at module scope.
    """

    mechanism: str
    load: float
    gpu: int
    requests: tuple  # ((arrival_us, tenant, rid, original, attempts), ...)
    tenants: tuple  # (repro.serve.Tenant, ...)
    preempt_us: float
    resume_us: float
    ops: tuple = ()  # ((time_us, kind, value), ...)
    crash_at_us: float = -1.0  # < 0: this GPU never crashes
    admission: tuple = ()  # AdmissionPolicy.as_tuple()
    ckpt_cadence_us: float = 0.0
    ckpt_snapshot_us: float = 0.0
    seed: int = 0

    def run(self) -> dict:
        # lazy: repro.serve imports this module at its top level
        from ..serve.resilience import resilient_shard_profile
        from ..serve.scheduler import AdmissionPolicy, MechanismCosts

        return resilient_shard_profile(
            self.requests,
            self.tenants,
            MechanismCosts(
                mechanism=self.mechanism,
                preempt_us=self.preempt_us,
                resume_us=self.resume_us,
            ),
            self.gpu,
            ops=self.ops,
            crash_at=self.crash_at_us if self.crash_at_us >= 0 else None,
            admission=(
                AdmissionPolicy.from_tuple(self.admission)
                if self.admission
                else None
            ),
            ckpt_cadence_us=self.ckpt_cadence_us,
            ckpt_snapshot_us=self.ckpt_snapshot_us,
            seed=self.seed,
        )


@dataclass(frozen=True)
class OverheadUnit:
    """Instrumentation overhead fraction of one (kernel, mechanism)."""

    key: str
    mechanism: str
    config: GPUConfig
    iterations: int | None = None

    def run(self) -> float:
        clean = reference_cycles_for(self.key, self.config, self.iterations)
        instrumented = reference_cycles_for(
            self.key, self.config, self.iterations, self.mechanism
        )
        return (instrumented - clean) / clean


def run_unit(unit):
    """Module-level trampoline so units traverse the process pool."""
    return unit.run()


def _maybe_inject_fault() -> None:
    """Test-only failpoint: SIGKILL this worker once per marker file."""
    marker = os.environ.get(FAULT_KILL_ENV, "")
    if not marker:
        return
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:  # marker exists: the fault already fired
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _run_unit_counted(unit):
    """Pool-side trampoline: ship the worker's cache traffic back with the
    result (workers exit via ``os._exit``, so counters cannot be flushed
    from an atexit hook)."""
    _maybe_inject_fault()
    stats = get_cache().stats
    before = stats.snapshot()
    result = unit.run()
    delta = stats.delta(before)
    return result, (
        delta.hits,
        delta.misses,
        delta.stores,
        delta.invalidations,
        delta.evictions,
    )


# -- the engine ------------------------------------------------------------------


def _worker_init(cache_root, cache_enabled, cache_max_bytes) -> None:
    from .cache import configure_cache

    # flush_previous=False: a forked worker inherits the parent's cache
    # object; flushing it here would multiply the parent's counters
    configure_cache(
        root=cache_root,
        enabled=cache_enabled,
        max_bytes=cache_max_bytes,
        flush_previous=False,
    )


@dataclass
class EngineReport:
    """Bookkeeping of one engine run (for BENCH_engine.json)."""

    jobs: int = 1
    units: int = 0
    waves: int = 0
    wall_s: float = 0.0
    cache: dict = field(default_factory=dict)
    # fault-tolerance traffic
    retries: int = 0  # pool re-attempts (all causes)
    timeouts: int = 0  # unit attempts abandoned at the unit timeout
    crashes: int = 0  # attempts lost to worker death (BrokenProcessPool)
    fallbacks: int = 0  # units run serially in-process after retry exhaustion
    failures: int = 0  # units that failed permanently
    failed_units: list = field(default_factory=list)
    #: units answered straight from a ``map(checkpoint=...)`` file
    checkpoint_hits: int = 0
    #: latency-breakdown aggregate folded from every traced ExperimentUnit
    #: (``trace=True``); empty when no unit ran under the tracer
    trace: dict = field(default_factory=dict)
    #: recovery-counter aggregate folded from every fault-injected unit
    #: (``faults=...`` / ChaosUnit); empty when no unit injected faults
    recovery: dict = field(default_factory=dict)
    #: exploration aggregate folded from every model-checking unit
    #: (:class:`repro.mc.McUnit`); empty when no unit model-checked
    mc: dict = field(default_factory=dict)

    def record_recovery_profile(self, profile: dict) -> None:
        """Fold one fault-injected unit's recovery counters into the report."""
        counters = profile.get("recovery")
        if not counters:
            return
        recovery = self.recovery
        recovery["faulted_units"] = recovery.get("faulted_units", 0) + 1
        if profile.get("ok") is False:
            recovery["oracle_failures"] = recovery.get("oracle_failures", 0) + 1
        recovery["recovery_cycles"] = recovery.get("recovery_cycles", 0) + (
            profile.get("recovery_cycles", 0)
        )
        for name, value in counters.items():
            recovery[name] = recovery.get(name, 0) + value

    def record_mc_profile(self, profile: dict) -> None:
        """Fold one model-checking unit's exploration counters in."""
        mc = self.mc
        mc["mc_units"] = mc.get("mc_units", 0) + 1
        if profile.get("ok") is False:
            mc["failed_units"] = mc.get("failed_units", 0) + 1
        if profile.get("truncated"):
            mc["truncated_units"] = mc.get("truncated_units", 0) + 1
        for counter in (
            "explored_states", "terminals", "transitions", "runs",
            "choice_points",
        ):
            mc[counter] = mc.get(counter, 0) + profile.get(counter, 0)
        mc["findings"] = mc.get("findings", 0) + len(
            profile.get("findings", ())
        )

    def record_trace_profile(self, profile: dict) -> None:
        """Fold one traced unit's breakdown aggregate into the report."""
        breakdown = profile.get("breakdown")
        if not breakdown:
            return
        trace = self.trace
        trace["traced_units"] = trace.get("traced_units", 0) + 1
        trace["events"] = trace.get("events", 0) + profile.get("events", 0)
        trace["warps"] = trace.get("warps", 0) + breakdown.get("warps", 0)
        for bucket in ("preempt_phase_cycles", "resume_phase_cycles"):
            totals = trace.setdefault(bucket, {})
            for phase, cycles in breakdown.get(bucket, {}).items():
                totals[phase] = totals.get(phase, 0) + cycles

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "units": self.units,
            "waves": self.waves,
            "wall_s": round(self.wall_s, 3),
            "cache": dict(self.cache),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "fallbacks": self.fallbacks,
            "failures": self.failures,
            "failed_units": list(self.failed_units),
            "checkpoint_hits": self.checkpoint_hits,
            "trace": dict(self.trace),
            "recovery": dict(self.recovery),
            "mc": dict(self.mc),
        }


#: bump when the checkpoint file layout changes (stale files recompute)
CHECKPOINT_VERSION = 1


def unit_key(unit) -> str:
    """Content hash of a work unit — stable across processes and sessions.

    Keyed on the unit's type name plus its canonical field tree, so the
    same sweep re-launched after a crash maps each unit back to its saved
    result while any spec change (config, seed, iterations) re-runs."""
    blob = json.dumps(
        [type(unit).__name__, canonical(unit)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def retry_delay(base_s: float, attempt: int, keys: list[str]) -> float:
    """Backoff before a pool retry wave (seconds).

    Exponential in the worst attempt count, with a jitter fraction
    derived from the retried units' content keys — **not** wall clock —
    so two runs of the same sweep back off identically (the engine stays
    deterministic end to end) while distinct sweeps decorrelate instead
    of thundering-herding a shared cache.  Capped at 2 s like the
    pre-jitter behaviour.
    """
    digest = hashlib.sha256("\n".join(sorted(keys)).encode("ascii")).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
    return min(base_s * (2 ** (attempt - 1)) * (1.0 + 0.5 * jitter), 2.0)


def _load_checkpoint(path: Path) -> dict:
    """Read a sweep checkpoint; any corruption means recompute-all (the
    snap framing's checksum makes a torn write indistinguishable from no
    file, which is the safe direction)."""
    from ..snap.format import SnapshotError, decode_snapshot

    try:
        data = path.read_bytes()
    except OSError:
        return {}
    try:
        payload = decode_snapshot(data)
    except SnapshotError:
        return {}
    if payload.get("version") != CHECKPOINT_VERSION:
        return {}
    results = payload.get("results")
    return dict(results) if isinstance(results, dict) else {}


def _write_checkpoint(path: Path, saved: dict) -> None:
    """Atomically persist the completed units (write-then-rename, so a
    crash mid-write leaves the previous checkpoint intact)."""
    from ..snap.format import encode_snapshot

    data = encode_snapshot(
        {"version": CHECKPOINT_VERSION, "results": saved}
    )
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def _abort_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: hung or crashed workers are terminated so a
    fresh pool can take over the retry wave."""
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.join(timeout=5)
        except Exception:
            pass


class ExperimentEngine:
    """Fans independent work units out over a process pool.

    ``jobs <= 1`` runs serially in-process; any other count uses a
    ``ProcessPoolExecutor`` whose workers attach to the same on-disk
    artifact cache.  Results always come back keyed by submission index, so
    the drivers' merges are deterministic and identical across worker
    counts, cache temperature and retries.  See the module docstring for
    the failure model; *options* (or the ``REPRO_UNIT_TIMEOUT`` /
    ``REPRO_UNIT_RETRIES`` / ``REPRO_FAILURE_POLICY`` environment) controls
    timeout, retry budget and the failure policy.
    """

    def __init__(
        self, jobs: int | None = None, options: EngineOptions | None = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.options = options if options is not None else EngineOptions.from_env()
        self.report = EngineReport(jobs=self.jobs)

    def map(self, units: list, *, checkpoint: str | Path | None = None) -> list:
        """Run *units* and return their results in submission order.

        With *checkpoint*, completed results persist to that file after
        every chunk (atomic rewrite, snap-framed): re-running the same
        sweep after a crash or interrupt skips every unit whose content
        key is already saved and finishes the rest.  Permanently-failed
        units are never checkpointed, so a resume retries them.
        """
        started = time.perf_counter()
        cache = get_cache()
        stats_before = cache.stats.snapshot()
        try:
            if checkpoint is None:
                results = self._map_all(units)
            else:
                results = self._map_checkpointed(units, Path(checkpoint))
            for result in results:
                if not isinstance(result, dict):
                    continue
                if "breakdown" in result:
                    self.report.record_trace_profile(result)
                if "recovery" in result:
                    self.report.record_recovery_profile(result)
                if "explored_states" in result:
                    self.report.record_mc_profile(result)
            return results
        finally:
            report = self.report
            report.units += len(units)
            report.waves += 1
            report.wall_s += time.perf_counter() - started
            report.cache = cache.stats.delta(stats_before).as_dict()

    def _map_all(self, units: list) -> list:
        if self.jobs <= 1 or len(units) <= 1:
            return self._map_serial(units)
        return self._map_pool(units)

    # -- crash-resume ----------------------------------------------------------

    def _map_checkpointed(self, units: list, path: Path) -> list:
        saved = _load_checkpoint(path)
        keys = [unit_key(unit) for unit in units]
        results: list = [None] * len(units)
        todo: list[int] = []
        for index, key in enumerate(keys):
            if key in saved:
                results[index] = saved[key]
            else:
                todo.append(index)
        self.report.checkpoint_hits += len(units) - len(todo)
        chunk = max(self.jobs * 4, 8)
        for start in range(0, len(todo), chunk):
            wave = todo[start:start + chunk]
            wave_results = self._map_all([units[i] for i in wave])
            for index, result in zip(wave, wave_results):
                results[index] = result
                if not isinstance(result, UnitFailure):
                    saved[keys[index]] = result
            _write_checkpoint(path, saved)
        return results

    # -- serial ----------------------------------------------------------------

    def _map_serial(self, units: list) -> list:
        """In-process execution; the failure policy still applies (the unit
        timeout cannot be enforced without a pool and is ignored)."""
        results = []
        for unit in units:
            try:
                results.append(unit.run())
            except Exception as exc:
                results.append(self._permanent_failure(unit, exc, attempts=1))
        return results

    # -- pooled ----------------------------------------------------------------

    def _map_pool(self, units: list) -> list:
        opts = self.options
        results: list = [None] * len(units)
        done = [False] * len(units)
        attempts = [0] * len(units)
        last_error: dict[int, tuple[str, str]] = {}
        pending = list(range(len(units)))

        while pending:
            retry_wave = [i for i in pending if 0 < attempts[i] <= opts.retries]
            exhausted = [i for i in pending if attempts[i] > opts.retries]
            for i in exhausted:
                kind, message = last_error.get(i, ("error", "unknown failure"))
                if kind == "timeout":
                    # an in-process rerun cannot be bounded; fail per policy
                    results[i] = self._permanent_failure(
                        units[i], TimeoutError(message), attempts=attempts[i]
                    )
                else:
                    results[i] = self._fallback_serial(units[i], attempts[i])
                done[i] = True
            pending = [i for i in pending if not done[i]]
            if not pending:
                break
            if retry_wave:
                self.report.retries += len(retry_wave)
                worst = max(attempts[i] for i in retry_wave)
                time.sleep(
                    retry_delay(
                        opts.retry_backoff_s, worst,
                        [unit_key(units[i]) for i in retry_wave],
                    )
                )
            self._pool_wave(pending, units, results, done, attempts, last_error)
            pending = [i for i in pending if not done[i]]
        return results

    def _pool_wave(
        self,
        indices: list[int],
        units: list,
        results: list,
        done: list[bool],
        attempts: list[int],
        last_error: dict[int, tuple[str, str]],
    ) -> None:
        """One pool pass over *indices*; aborts (and tears the pool down) on
        the first crash or timeout, leaving the survivors for the next wave."""
        cache = get_cache()
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(indices)),
            initializer=_worker_init,
            initargs=(cache.root, cache.enabled, cache.max_bytes),
        )
        aborted = False
        try:
            futures = {i: pool.submit(_run_unit_counted, units[i]) for i in indices}
            harvested = set()
            for i in indices:
                try:
                    payload = futures[i].result(timeout=self.options.unit_timeout)
                except FuturesTimeout:
                    attempts[i] += 1
                    last_error[i] = ("timeout", f"unit timed out after "
                                                f"{self.options.unit_timeout}s")
                    self.report.timeouts += 1
                    aborted = True
                except BrokenProcessPool as exc:
                    # a worker died; the culprit is unknowable, so the unit
                    # we were waiting on takes the blame (bounded either way)
                    attempts[i] += 1
                    last_error[i] = ("crash", f"{type(exc).__name__}: {exc}")
                    self.report.crashes += 1
                    aborted = True
                except Exception as exc:
                    # the unit raised, or its result did not survive pickling
                    attempts[i] += 1
                    last_error[i] = ("error", f"{type(exc).__name__}: {exc}")
                else:
                    self._harvest(i, payload, results, done)
                harvested.add(i)
                if aborted:
                    break
            if aborted:
                # pick up whatever already finished before tearing down
                for i in indices:
                    if i in harvested or not futures[i].done():
                        continue
                    try:
                        payload = futures[i].result(timeout=0)
                    except Exception:
                        continue  # retried next wave, uncharged
                    self._harvest(i, payload, results, done)
        finally:
            if aborted:
                _abort_pool(pool)
            else:
                pool.shutdown(wait=True)

    def _harvest(self, index: int, payload, results: list, done: list[bool]) -> None:
        result, (hits, misses, stores, invalidations, evictions) = payload
        results[index] = result
        done[index] = True
        # fold worker-side cache traffic into the parent's counters
        stats = get_cache().stats
        stats.hits += hits
        stats.misses += misses
        stats.stores += stores
        stats.invalidations += invalidations
        stats.evictions += evictions

    # -- last resorts ----------------------------------------------------------

    def _fallback_serial(self, unit, attempts: int):
        """Retry-exhausted unit: one in-process attempt (immune to worker
        crashes and pickling), then the failure policy."""
        self.report.fallbacks += 1
        try:
            return unit.run()
        except Exception as exc:
            return self._permanent_failure(unit, exc, attempts=attempts + 1)

    def _permanent_failure(self, unit, exc: BaseException, attempts: int):
        failure = UnitFailure(
            unit=repr(unit),
            error=f"{type(exc).__name__}: {exc}",
            attempts=attempts,
        )
        self.report.failures += 1
        self.report.failed_units.append(failure.unit)
        if self.options.failure_policy is FailurePolicy.FAIL_FAST:
            raise EngineFailure(
                f"work unit failed permanently after {attempts} attempt(s): "
                f"{failure.unit} ({failure.error})"
            ) from (exc if isinstance(exc, Exception) else None)
        return failure
