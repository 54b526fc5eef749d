"""Launch harness and preemption experiments.

Ties the pieces together for the evaluation flows of paper §V:

* :func:`run_reference` — run a kernel to completion (optionally with a
  mechanism's instrumentation active) and report cycles + final memory;
* :func:`run_preemption_experiment` — run a kernel, preempt its warps at a
  chosen dynamic instruction under a mechanism's plans (optionally with a
  *background* kernel keeping the SM's memory system busy, as in the paper's
  bandwidth-contention observation), resume after a gap, run to completion,
  and verify the final memory image against an uninterrupted reference run.

The functional verification is the repo's ground truth: a mechanism is only
credible if preempt-anywhere + resume is bit-identical to never preempting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from typing import TYPE_CHECKING

import numpy as np

from ..faults.errors import SimulationHangError
from ..isa.instruction import Kernel
from ..obs import PhaseBreakdown, Tracer, build_breakdowns, make_tracer
from .config import GPUConfig

if TYPE_CHECKING:  # avoid a circular import; PreparedKernel is type-only here
    from ..mechanisms.base import PreparedKernel
from .memory import DeviceMemory
from .preemption import PreemptionController, WarpMeasurement
from .regfile import LDSBlock, WarpState
from .sm import SM
from .warp import SimWarp, WarpMode


@dataclass
class LaunchSpec:
    """How to instantiate a kernel on the simulator.

    ``setup_memory`` populates input buffers; ``setup_warp(state, warp_index)``
    initialises the launch ABI registers (base pointers, sizes, lane ids).
    """

    kernel: Kernel
    setup_memory: Callable[[DeviceMemory], None]
    setup_warp: Callable[[WarpState, int], None]
    num_warps: int | None = None

    @property
    def warp_count(self) -> int:
        return self.num_warps or self.kernel.warps_per_block


def _make_warp_state(kernel: Kernel, config: GPUConfig) -> WarpState:
    spec = config.rf_spec
    return WarpState(
        num_vregs=max(1, spec.allocated_vgprs(kernel.vgprs_used)),
        num_sregs=max(1, spec.allocated_sgprs(kernel.sgprs_used)),
        warp_size=spec.warp_size,
    )


def build_launch(
    spec: LaunchSpec,
    config: GPUConfig,
    *,
    kernel_override: Kernel | None = None,
    block_id: int = 0,
    warp_id_base: int = 0,
    sm: SM | None = None,
    memory: DeviceMemory | None = None,
) -> tuple[SM, list[SimWarp], DeviceMemory]:
    """Instantiate warps (and LDS) for a kernel on an SM."""
    kernel = kernel_override or spec.kernel
    memory = memory if memory is not None else DeviceMemory()
    if sm is None:
        sm = SM(config, memory)
        spec.setup_memory(memory)
    else:
        spec.setup_memory(memory)
    # each warp owns its share of the thread block's LDS allocation (the
    # benchmark kernels partition LDS per warp; this also matches the
    # per-warp lds_share_bytes context accounting)
    from ..ctxback.context import lds_share_bytes

    share = lds_share_bytes(kernel)
    count = spec.warp_count
    warps = []
    backing_v = backing_e = None
    for index in range(count):
        state = _make_warp_state(kernel, config)
        if count > 1:
            # co-locate the launch's register files in one (warps, vregs,
            # lanes) array so the fast core can batch lockstep VALU work
            # across warps; must happen before any register is written
            if backing_v is None:
                backing_v = np.zeros(
                    (count, state.num_vregs, state.warp_size), dtype=np.uint32
                )
                backing_e = np.ones((count, state.warp_size), dtype=bool)
            state.adopt_shared(backing_v[index], backing_e[index], index)
        spec.setup_warp(state, index)
        warp = SimWarp(
            warp_id=warp_id_base + index,
            state=state,
            main_program=kernel.program,
            block_id=block_id,
            lds=LDSBlock(share) if share else None,
        )
        sm.add_warp(warp)
        warps.append(warp)
    return sm, warps, memory


@dataclass
class RunResult:
    cycles: int
    memory: DeviceMemory
    sm: SM

    @property
    def trace(self) -> Tracer | None:
        """The run's event trace (``None`` unless tracing was enabled)."""
        return self.sm.tracer


def run_reference(
    spec: LaunchSpec,
    config: GPUConfig,
    prepared: "PreparedKernel | None" = None,
) -> RunResult:
    """Run to completion with no preemption signal.

    With *prepared* given, the instrumented program runs and instrumentation
    hooks (CKPT probes) stay active — this is how Fig. 10's runtime overhead
    is measured.
    """
    kernel = prepared.kernel if prepared is not None else None
    sm, warps, memory = build_launch(spec, config, kernel_override=kernel)
    sm.tracer = make_tracer(
        config, prepared.mechanism if prepared is not None else ""
    )
    if prepared is not None:
        controller = PreemptionController(
            sm=sm,
            prepared=prepared,
            target_warp_ids=set(),
            signal_dyn=1 << 62,
            warp_initializer=_initializer_for(spec),
        )
        del controller  # hooks stay installed on the SM
    cycles = sm.run()
    return RunResult(cycles=cycles, memory=memory, sm=sm)


def _initializer_for(spec: LaunchSpec):
    def init(warp: SimWarp) -> None:
        index = warp.warp_id  # target warps are numbered from zero
        spec.setup_warp(warp.state, index)
        warp.state.pc = 0

    return init


@dataclass
class ExperimentResult:
    mechanism: str
    measurements: list[WarpMeasurement]
    total_cycles: int
    verified: bool
    #: cycles of the uninterrupted reference run; ``None`` — not ``0`` —
    #: when no reference was run (``verify=False``).  A 0-cycle reference
    #: (degenerate launch) is a legitimate value, distinct from "absent".
    reference_cycles: int | None
    memory: DeviceMemory = field(repr=False, default=None)  # type: ignore[assignment]
    #: the run's event trace (``None`` unless tracing was enabled)
    trace: Tracer | None = field(repr=False, default=None)
    #: per-warp latency decomposition (populated only when tracing):
    #: ``sum(phases) == latency_cycles`` for every measured warp
    breakdowns: dict[int, PhaseBreakdown] = field(default_factory=dict)
    #: the fault injector that ran (``None`` for clean runs); carries the
    #: injected-fault audit log and recovery counters
    faults: object | None = field(repr=False, default=None)
    #: the simulated SM, kept for post-run architectural-state inspection
    #: (the chaos oracle compares final register files and LDS)
    sm: SM | None = field(repr=False, default=None)

    @property
    def mean_latency(self) -> float:
        if not self.measurements:
            return 0.0
        return sum(m.latency_cycles for m in self.measurements) / len(
            self.measurements
        )

    @property
    def mean_resume(self) -> float | None:
        """Mean resume cost; ``None`` — not ``0.0`` — when no warp carries
        resume data (``verify=False`` short runs, routines that never fired).
        A genuine 0-cycle resume (DRAIN finishing the warp in place) is a
        legitimate value, distinct from "absent"."""
        values = [
            m.resume_cycles for m in self.measurements if m.resume_cycles is not None
        ]
        return sum(values) / len(values) if values else None

    @property
    def mean_context_bytes(self) -> float:
        if not self.measurements:
            return 0.0
        return sum(m.context_bytes for m in self.measurements) / len(
            self.measurements
        )

    def breakdown_for(self, warp_id: int) -> PhaseBreakdown | None:
        return self.breakdowns.get(warp_id)


def finalize_measurements(
    sm: SM,
    controller: PreemptionController,
    target_warps: list[SimWarp],
) -> None:
    """Post-run measurement fill: CKPT resume times from the watch
    timestamps, and restart-from-zero recovery attribution.

    ``is None`` guards throughout — ``recovery_cycles == 0`` is a
    legitimate zero-cost fallback (a degraded save whose stores drained
    within the same cycle) and must not be overwritten, and a degraded
    warp with no resume data keeps ``recovery_cycles is None`` rather
    than being coerced to a fabricated 0.
    """
    for warp in target_warps:
        measurement = controller.measurements.get(warp.warp_id)
        if measurement is None:
            continue
        if measurement.resume_cycles is None and warp.resume_start_cycle is not None:
            end = warp.resume_done_cycle
            if end is None:
                end = sm.cycle  # finished before re-reaching the signal point
            measurement.resume_cycles = end - warp.resume_start_cycle
        if measurement.degraded and measurement.recovery_cycles is None:
            # restart-from-zero recovery: the whole re-execution back to
            # the signal point is recovery work.  Preserve None when the
            # resume data is genuinely absent.
            measurement.recovery_cycles = measurement.resume_cycles


def drive_experiment_loop(
    sm: SM,
    controller: PreemptionController,
    target_warps: list[SimWarp],
    config: GPUConfig,
    *,
    signal_dyn: int,
    resume_gap: int = 2000,
    injector=None,
    resumed: bool = False,
    resume_at: int | None = None,
    loop_hook: Callable[[SM, PreemptionController, list[SimWarp], dict], None]
    | None = None,
    stop_when_measured: bool = False,
) -> None:
    """Drive a preemption experiment to completion: poll, evict, resume at
    the gap deadline, run out the kernel.

    With *stop_when_measured* the loop returns as soon as the measurements
    are final instead: the resume has been delivered, the controller is
    disarmed and every target warp has its ``resume_done_cycle``.  A warp
    that finishes without one (a drained warp, or a CKPT warp that ends
    before re-reaching its signal point) keeps the run going to completion.
    Nothing the simulation does after that point can change a
    :class:`WarpMeasurement`, but memory, ``sm.cycle`` and every other
    warp's state are left mid-run: only callers that read nothing else may
    ask for it.

    Factored out of :func:`run_preemption_experiment` so a restored
    snapshot (:mod:`repro.snap`) can re-enter the experiment mid-flight —
    *resumed*/*resume_at* carry the loop state across the save/restore
    boundary.  *loop_hook*, when given, is called at the top of every
    iteration with the current loop state (``{"resumed", "resume_at",
    "signal_dyn", "resume_gap"}``); it may only observe (snapshot capture),
    never mutate — mutation would be an observer effect.
    """

    def _resume_deadline() -> int:
        done_cycles = [
            w.preempt_done_cycle
            for w in target_warps
            if w.preempt_done_cycle is not None
        ]
        return (max(done_cycles) if done_cycles else sm.cycle) + resume_gap

    def _deliver_resume() -> None:
        nonlocal resumed
        sm.cycle = max(sm.cycle, resume_at)
        if loop_hook is not None:
            # the pre-resume observation: every target context is saved and
            # sm.cycle equals the (core-independent) resume deadline — the
            # one loop point both cores reach in the same simulated state,
            # which snapshot capture (repro.snap) keys on
            loop_hook(
                sm,
                controller,
                target_warps,
                {
                    "resumed": False,
                    "resume_at": resume_at,
                    "signal_dyn": signal_dyn,
                    "resume_gap": resume_gap,
                },
            )
        for warp in target_warps:
            controller.resume_warp(warp, sm.cycle)
        resumed = True

    # the fast core batches many issues per call; fault injection needs the
    # per-step reference path (the injector hooks every single issue)
    use_fast = sm.core == "fast" and injector is None
    while True:
        if loop_hook is not None:
            loop_hook(
                sm,
                controller,
                target_warps,
                {
                    "resumed": resumed,
                    "resume_at": resume_at,
                    "signal_dyn": signal_dyn,
                    "resume_gap": resume_gap,
                },
            )
        controller.poll()
        if (
            stop_when_measured
            and resumed
            and not controller.armed
            and all(w.resume_done_cycle is not None for w in target_warps)
        ):
            break
        if not resumed and controller.all_evicted():
            if resume_at is None:
                resume_at = _resume_deadline()
            # honour the gap exactly: resume is delivered *at* resume_at,
            # never before (an idle SM warps time forward instead of
            # resuming early) and never after (the scheduler must not
            # leap past the deadline to a stalled warp's ready cycle)
            next_issue = sm.next_issue_cycle()
            if (
                sm.cycle >= resume_at
                or next_issue is None
                or next_issue >= resume_at
            ):
                _deliver_resume()
                continue
        if use_fast:
            # arm the dyn-break so the batch returns exactly when a target
            # warp reaches the signal's dynamic instruction — the next
            # poll() then delivers the signal at the reference boundary
            dyn_break = signal_dyn if controller.armed else None
            for warp in target_warps:
                warp.dyn_break = dyn_break
                if (
                    stop_when_measured
                    and dyn_break is None
                    and warp.resume_watch_dyn is not None
                    and warp.resume_done_cycle is None
                ):
                    # a resumed CKPT warp measures its resume on the issue
                    # that re-reaches the watch point; return right after it
                    warp.dyn_break = warp.resume_watch_dyn + 1
            progressed = sm.advance(
                stop_cycle=resume_at if not resumed else None,
                limit=config.max_cycles,
            )
        else:
            progressed = sm.step()
        if not progressed:
            if not resumed and controller.all_evicted():
                # nothing can issue before the gap elapses (the last warp
                # may have evicted during this very advance): warp idle time
                if resume_at is None:
                    resume_at = _resume_deadline()
                _deliver_resume()
                continue
            break
        if sm.cycle > config.max_cycles:
            # the no-forward-progress watchdog: a typed error with a
            # per-warp diagnostic dump instead of spinning to the job cap
            raise SimulationHangError(
                f"preemption experiment exceeded {config.max_cycles} cycles "
                f"without completing (livelock?)",
                cycle=sm.cycle,
                warp_dump=sm.warp_state_dump(),
            )


def run_preemption_experiment(
    spec: LaunchSpec,
    prepared: "PreparedKernel",
    config: GPUConfig,
    signal_dyn: int,
    *,
    background: LaunchSpec | None = None,
    resume_gap: int = 2000,
    verify: bool = True,
    faults=None,
    loop_hook=None,
    memory: DeviceMemory | None = None,
    stop_when_measured: bool = False,
) -> ExperimentResult:
    """Preempt every target warp at dynamic instruction *signal_dyn*, resume
    after *resume_gap* cycles, run to completion, verify memory.

    *faults* is a :class:`~repro.faults.plan.FaultPlan` (or an already-built
    :class:`~repro.faults.injector.FaultInjector`); ``None`` — the default —
    disables injection entirely and costs nothing on the hot path.
    *loop_hook* is the snapshot capture point (see
    :func:`drive_experiment_loop`).  *memory* substitutes the experiment's
    device memory (e.g. a :class:`~repro.sim.memory.TrackedMemory` so a
    speculative checkpoint can record write epochs).

    *stop_when_measured* ends the run once every measurement is final (see
    :func:`drive_experiment_loop`); ``total_cycles`` and ``memory`` are then
    those of the stopped run.  It cannot be combined with *verify*, which
    compares the final memory image.
    """
    if stop_when_measured and verify:
        raise ValueError("stop_when_measured skips the run's tail; verify needs it")
    reference_cycles: int | None = None
    ref_memory = None
    if verify:
        ref = run_reference(spec, config)
        if background is not None:
            # reference for memory comparison must include background effects
            ref_sm, _, ref_mem = build_launch(spec, config)
            build_launch(
                background,
                config,
                sm=ref_sm,
                memory=ref_mem,
                block_id=1,
                warp_id_base=1000,
            )
            ref_sm.run()
            ref_memory = ref_mem
        else:
            ref_memory = ref.memory
        reference_cycles = ref.cycles

    sm, target_warps, memory = build_launch(
        spec, config, kernel_override=prepared.kernel, memory=memory
    )
    sm.tracer = make_tracer(config, prepared.mechanism)
    if background is not None:
        build_launch(
            background, config, sm=sm, memory=memory, block_id=1, warp_id_base=1000
        )
    controller = PreemptionController(
        sm=sm,
        prepared=prepared,
        target_warp_ids={w.warp_id for w in target_warps},
        signal_dyn=signal_dyn,
        warp_initializer=_initializer_for(spec),
    )
    injector = None
    if faults is not None:
        # accept a plan (built per run: injector state is single-use) or a
        # pre-built injector (tests tweak policies through it)
        injector = faults.build() if hasattr(faults, "build") else faults
        injector.attach(sm, controller)

    drive_experiment_loop(
        sm,
        controller,
        target_warps,
        config,
        signal_dyn=signal_dyn,
        resume_gap=resume_gap,
        injector=injector,
        loop_hook=loop_hook,
        stop_when_measured=stop_when_measured,
    )

    finalize_measurements(sm, controller, target_warps)

    verified = True
    if verify and ref_memory is not None:
        verified = memory == ref_memory
    measurements = [
        controller.measurements[w.warp_id]
        for w in target_warps
        if w.warp_id in controller.measurements
    ]
    breakdowns: dict[int, PhaseBreakdown] = {}
    if sm.tracer is not None:
        breakdowns = build_breakdowns(sm.tracer, measurements)
    return ExperimentResult(
        mechanism=prepared.mechanism,
        measurements=measurements,
        total_cycles=sm.cycle,
        verified=verified,
        reference_cycles=reference_cycles,
        memory=memory,
        trace=sm.tracer,
        breakdowns=breakdowns,
        faults=injector,
        sm=sm,
    )
