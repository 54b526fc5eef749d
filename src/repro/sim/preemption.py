"""Preemption controller: signals, routine dispatch, measurement.

Implements paper §IV-B's runtime flow: when the preemption signal is
processed (before the next instruction of a running warp issues), the warp
jumps to the *dedicated preemption routine* selected by its program counter;
once the routine's stores have drained, the warp's on-chip resources are
released (``EVICTED``).  On resume, the warp runs the dedicated resuming
routine and re-enters the kernel at the plan's ``resume_pc``.

Two measurements fall out, matching §V's metrics:

* **preemption latency** — signal cycle → last context store drained;
* **resuming time** — resume request → resume routine finished (for CKPT:
  → execution has re-reached the dynamic instruction where the preemption
  hit, counting the re-executed iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING, Callable

from ..ctxback.context import META_BYTES
from ..faults.errors import ContextIntegrityError
from ..faults.integrity import context_checksum, snapshot_checksum
from ..obs.events import EventKind
from .sm import SM

if TYPE_CHECKING:  # avoid a circular import; PreparedKernel is type-only here
    from ..faults.injector import FaultInjector
    from ..mechanisms.base import PreparedKernel
from .warp import CkptSnapshot, SimWarp, WarpMode


@dataclass
class WarpMeasurement:
    warp_id: int
    signal_pc: int
    signal_cycle: int
    latency_cycles: int
    resume_cycles: int | None = None
    context_bytes: int = 0
    flashback_pos: int | None = None
    #: this warp's preemption fell back to the conservative path
    #: (full register save/restore, or a CKPT checkpoint discard + restart)
    degraded: bool = False
    #: extra cycles spent on the fallback.  ``None`` means *no recovery
    #: data* (clean preemptions never touch it); a genuine ``0`` is a
    #: legitimate zero-cost fallback — e.g. a degraded save whose stores
    #: drained within the same cycle — and must never be coerced back to
    #: "absent" (the falsy-zero sentinel class fixed in PR 2 and PR 7)
    recovery_cycles: int | None = None


@dataclass
class PreemptionController:
    sm: SM
    prepared: "PreparedKernel"
    target_warp_ids: set[int]
    #: preempt each target warp when its dynamic instruction count reaches this
    signal_dyn: int
    measurements: dict[int, WarpMeasurement] = field(default_factory=dict)
    armed: bool = True
    #: warps already signalled once — the experiment preempts each warp once
    delivered: set[int] = field(default_factory=set)
    #: measurements archived by :meth:`rearm` (multi-round preemption —
    #: the model checker signals the same warp several times per run)
    history: list[WarpMeasurement] = field(default_factory=list)
    #: warps currently draining (signal received, running to completion)
    _draining: set[int] = field(default_factory=set)
    #: fault injector (:mod:`repro.faults`); ``None`` disables injection
    #: entirely — the integrity checksums stay on regardless
    faults: "FaultInjector | None" = None
    #: set by the launch harness; re-initializes a CKPT warp dropped before
    #: its first checkpoint, which restarts the kernel from the beginning.
    #: Held here, not on the (cached, shared) prepared kernel, so a run
    #: never leaves a closure on an artifact that must stay picklable.
    warp_initializer: "Callable[[SimWarp], None] | None" = None
    _full_context_bytes: int | None = None

    def __post_init__(self) -> None:
        self.sm.pre_issue_hook = self._on_pre_issue
        self.sm.program_end_hook = self._on_program_end
        self.sm.ckpt_hook = self._on_ckpt_probe

    # -- signal delivery --------------------------------------------------------

    def poll(self) -> None:
        """Raise the preempt flag on target warps that reached the trigger."""
        faults = self.faults
        if faults is not None:
            # before the armed checks: duplicate injection targets warps
            # whose first preemption was already served (armed may be off)
            faults.on_poll(self, self.sm.cycle)
        if not self.armed:
            return
        if len(self.delivered) == len(self.target_warp_ids):
            self.armed = False  # every target signalled once; nothing to scan
            return
        # pinned delivery order: sm.warps is built in warp_id order, so
        # several warps crossing the trigger on the same poll are flagged
        # in ascending warp_id — same-cycle signals are totally ordered by
        # (signal_cycle, warp_id) on both cores (tests/test_signal_order.py)
        for warp in self.sm.warps:
            if (
                warp.warp_id in self.target_warp_ids
                and warp.warp_id not in self.delivered
                and warp.mode is WarpMode.RUNNING
                and not warp.preempt_flag
                and warp.dyn_count >= self.signal_dyn
            ):
                if faults is not None and faults.drop_signal(warp, self.sm.cycle):
                    continue  # delivery lost in flight; retried next poll
                warp.preempt_flag = True
                self.delivered.add(warp.warp_id)

    # -- hooks ---------------------------------------------------------------------

    def _on_pre_issue(self, warp: SimWarp, cycle: int) -> None:
        """Flagged warp about to issue: divert it into its preemption routine."""
        warp.preempt_flag = False
        if warp.warp_id in self.measurements:
            # duplicate signal for an already-served warp: absorb it rather
            # than re-entering the preemption flow (the experiment preempts
            # each warp exactly once; a re-delivered signal is a fault)
            if self.faults is not None:
                self.faults.stats.duplicates_ignored += 1
            if self.sm.tracer is not None:
                self.sm.tracer.emit(
                    cycle, EventKind.RECOVER, warp.warp_id,
                    action="duplicate_ignored",
                )
            return
        n = warp.state.pc
        warp.signal_cycle = cycle
        warp.routine_last_mem_completion = cycle
        strategy = self.prepared.strategy_for(warp)
        warp.active_strategy = strategy
        tracer = self.sm.tracer
        if tracer is not None:
            tracer.emit(
                cycle, EventKind.SIGNAL, warp.warp_id,
                pc=n, strategy=strategy,
            )
        if strategy == "drain":
            # SM-draining: the warp keeps running; latency is measured when
            # it finishes (see _on_program_end)
            self.measurements[warp.warp_id] = WarpMeasurement(
                warp_id=warp.warp_id,
                signal_pc=n,
                signal_cycle=cycle,
                latency_cycles=-1,
                context_bytes=0,
            )
            self._draining.add(warp.warp_id)
            return
        if strategy == "drop":
            # CKPT drops the warp: its context already lives in the last
            # checkpoint.  Only the per-warp metadata is written out.
            completion = self.sm.pipeline.request(
                cycle, META_BYTES, is_ctx=True, kind="ctx_store"
            )
            warp.mode = WarpMode.EVICTED
            warp.resume_watch_dyn = warp.dyn_count
            snapshot = warp.last_checkpoint
            # integrity guard: the checkpoint (the context at rest) is
            # checksummed now and re-verified before the resume trusts it
            warp.ctx_checksum = (
                snapshot_checksum(snapshot) if snapshot is not None else None
            )
            self.measurements[warp.warp_id] = WarpMeasurement(
                warp_id=warp.warp_id,
                signal_pc=n,
                signal_cycle=cycle,
                latency_cycles=completion - cycle,
                context_bytes=snapshot.nbytes if snapshot else META_BYTES,
            )
            warp.preempt_done_cycle = completion
            if tracer is not None:
                tracer.emit(
                    cycle, EventKind.MEM_DRAIN, warp.warp_id,
                    routine="preempt", dur=completion - cycle,
                    nbytes=META_BYTES,
                )
                tracer.emit(completion, EventKind.EVICT, warp.warp_id)
            if self.faults is not None:
                self.faults.on_evicted(warp, completion)
            return
        plan = self.prepared.plans[n]
        warp.active_plan = plan
        if self.faults is not None:
            # shadow architectural image at the signal point: the ground
            # truth the full-save degradation path restores from.  Captured
            # only while injection is armed — a clean run pays nothing.
            warp.arch_image = self._capture_image(warp)
        warp.mode = WarpMode.PREEMPT_ROUTINE
        warp.program = plan.preempt_routine
        warp.state.pc = 0
        if tracer is not None:
            tracer.emit(
                cycle, EventKind.ROUTINE_START, warp.warp_id,
                routine="preempt", context_bytes=plan.context_bytes,
                flashback=plan.flashback_pos,
            )
        self.measurements[warp.warp_id] = WarpMeasurement(
            warp_id=warp.warp_id,
            signal_pc=n,
            signal_cycle=cycle,
            latency_cycles=-1,
            context_bytes=plan.context_bytes,
            flashback_pos=plan.flashback_pos,
        )

    def _on_program_end(self, warp: SimWarp, cycle: int) -> None:
        tracer = self.sm.tracer
        if warp.mode is WarpMode.RUNNING and warp.warp_id in self._draining:
            # a draining warp finished: the SM is finally released
            measurement = self.measurements[warp.warp_id]
            measurement.latency_cycles = cycle - measurement.signal_cycle
            measurement.resume_cycles = 0  # nothing to resume
            self._draining.discard(warp.warp_id)
            if tracer is not None:
                tracer.emit(cycle, EventKind.DRAIN_DONE, warp.warp_id)
            return
        if warp.mode is WarpMode.PREEMPT_ROUTINE:
            done = max(cycle, warp.routine_last_mem_completion)
            # metadata (pc, ids) rides along with the context
            done = max(
                done,
                self.sm.pipeline.request(done, META_BYTES, is_ctx=True, kind="ctx_store"),
            )
            warp.preempt_done_cycle = done
            warp.mode = WarpMode.EVICTED
            measurement = self.measurements[warp.warp_id]
            measurement.latency_cycles = done - measurement.signal_cycle
            # integrity guard: checksum the saved context now; resume_warp
            # re-verifies before trusting it.  Functional only — computing
            # a CRC cannot change a simulated cycle.
            warp.ctx_checksum = context_checksum(warp.state.ctx_buffer)
            warp.state.clear()  # registers are released; restore must rebuild
            if tracer is not None:
                tracer.emit(
                    cycle, EventKind.ROUTINE_END, warp.warp_id,
                    routine="preempt",
                )
                tracer.emit(
                    cycle, EventKind.MEM_DRAIN, warp.warp_id,
                    routine="preempt", dur=done - cycle,
                )
                tracer.emit(done, EventKind.EVICT, warp.warp_id)
            if self.faults is not None:
                self.faults.on_evicted(warp, done)
        elif warp.mode is WarpMode.RESUME_ROUTINE:
            plan = warp.active_plan
            assert plan is not None
            done = max(cycle, warp.routine_last_mem_completion)
            warp.resume_done_cycle = done
            warp.mode = WarpMode.RUNNING
            warp.program = warp.main_program
            warp.state.pc = plan.resume_pc
            measurement = self.measurements[warp.warp_id]
            # `is None`, not truthiness: a resume that started at cycle 0 is
            # a real start, not absent data
            start = warp.resume_start_cycle
            measurement.resume_cycles = done - start if start is not None else 0
            warp.active_plan = None
            if tracer is not None:
                tracer.emit(
                    cycle, EventKind.ROUTINE_END, warp.warp_id,
                    routine="resume",
                )
                tracer.emit(
                    cycle, EventKind.MEM_DRAIN, warp.warp_id,
                    routine="resume", dur=done - cycle,
                )
                tracer.emit(
                    done, EventKind.RESUME_END, warp.warp_id,
                    strategy="switch",
                )

    def _on_ckpt_probe(self, warp: SimWarp, instruction, cycle: int) -> None:
        if not self.prepared.is_checkpoint_based:
            return
        probe_id = instruction.srcs[0].value
        count = warp.probe_counts.get(probe_id, 0)
        warp.probe_counts[probe_id] = count + 1
        if count % self.sm.config.ckpt_interval != 0:
            return
        site = self.prepared.ckpt_sites[probe_id]
        lds = warp.lds
        warp.last_checkpoint = CkptSnapshot(
            regs=warp.state.snapshot_regs(),
            lds=lds.snapshot() if lds is not None else None,
            dyn_count=warp.dyn_count,
            probe_counts=dict(warp.probe_counts),
            nbytes=site.nbytes,
            pc_after_probe=warp.state.pc + 1,
        )
        # checkpoint stores occupy bandwidth; the warp stalls only while
        # the requests are being issued (one cycle per stored register).
        self.sm.pipeline.request(cycle, site.nbytes, is_ctx=True, kind="ckpt_store")
        warp.next_free = cycle + max(1, site.store_ops)
        if self.sm.tracer is not None:
            self.sm.tracer.emit(
                cycle, EventKind.CKPT_STORE, warp.warp_id,
                probe=probe_id, nbytes=site.nbytes,
            )

    # -- recovery ----------------------------------------------------------------------

    def full_context_bytes(self) -> int:
        """Bytes of the conservative full-register save (regsave semantics:
        the whole allocated register file + LDS + metadata)."""
        if self._full_context_bytes is None:
            from ..ctxback.context import baseline_context_bytes

            self._full_context_bytes = baseline_context_bytes(
                self.prepared.kernel, self.sm.config.rf_spec
            )
        return self._full_context_bytes

    def _capture_image(self, warp: SimWarp) -> CkptSnapshot:
        """Functional snapshot of the warp's architectural state at the
        signal point (registers, LDS, dynamic progress)."""
        lds = warp.lds
        return CkptSnapshot(
            regs=warp.state.snapshot_regs(),
            lds=lds.snapshot() if lds is not None else None,
            dyn_count=warp.dyn_count,
            probe_counts=dict(warp.probe_counts),
            nbytes=self.full_context_bytes(),
            pc_after_probe=warp.state.pc,
        )

    def _integrity_failure(
        self, warp: SimWarp, cycle: int, *, expected: int, actual: int,
        can_degrade: bool,
    ) -> None:
        """Record a checksum mismatch; degrade if the policy allows it,
        raise :class:`ContextIntegrityError` otherwise."""
        faults = self.faults
        retries = faults.policy.max_retries if faults is not None else 0
        if faults is not None:
            faults.stats.integrity_failures += 1
        if self.sm.tracer is not None:
            self.sm.tracer.emit(
                cycle, EventKind.INTEGRITY_FAIL, warp.warp_id,
                expected=expected, actual=actual, retries=retries,
            )
        if can_degrade and faults is not None and faults.policy.allow_degrade:
            return
        raise ContextIntegrityError(
            f"warp {warp.warp_id}: saved context failed checksum "
            f"verification at resume (expected {expected:#010x}, got "
            f"{actual:#010x}) after {retries} re-read retries",
            warp_id=warp.warp_id, expected=expected, actual=actual,
        )

    def degrade_save(self, warp: SimWarp, cycle: int, reason: str = "") -> None:
        """Abandon the in-flight preemption routine and evict through the
        conservative full-register-save path (regsave semantics).

        The routine's partial context is discarded; the signal-time
        architectural image is written out whole, so the later resume is a
        plain full reload regardless of how far the routine got.
        """
        image = warp.arch_image
        if warp.mode is not WarpMode.PREEMPT_ROUTINE or image is None:
            raise RuntimeError(
                f"warp {warp.warp_id} has no in-flight routine to degrade"
            )
        tracer = self.sm.tracer
        if tracer is not None:
            tracer.emit(
                cycle, EventKind.DEGRADE, warp.warp_id,
                fallback="full_save", reason=reason,
            )
        completion = self.sm.pipeline.request(
            cycle, image.nbytes, is_ctx=True, kind="ctx_store"
        )
        # stores the aborted routine already issued still have to drain
        completion = max(completion, warp.routine_last_mem_completion)
        warp.degraded_save = True
        warp.ctx_checksum = snapshot_checksum(image)
        warp.mode = WarpMode.EVICTED
        warp.preempt_done_cycle = completion
        warp.state.clear()
        measurement = self.measurements[warp.warp_id]
        measurement.latency_cycles = completion - measurement.signal_cycle
        measurement.context_bytes = image.nbytes
        measurement.degraded = True
        base = measurement.recovery_cycles
        measurement.recovery_cycles = (
            (0 if base is None else base) + max(0, completion - cycle)
        )
        if self.faults is not None:
            self.faults.stats.degraded_saves += 1
        if tracer is not None:
            tracer.emit(
                cycle, EventKind.MEM_DRAIN, warp.warp_id,
                routine="preempt", dur=completion - cycle, nbytes=image.nbytes,
            )
            tracer.emit(completion, EventKind.EVICT, warp.warp_id)
            tracer.emit(
                completion, EventKind.RECOVER, warp.warp_id, action="full_save",
            )

    def _resume_full_image(self, warp: SimWarp, cycle: int) -> None:
        """Restore the signal-time architectural image whole (the full
        register save's restore path) and re-enter the kernel."""
        image = warp.arch_image
        if image is None:
            raise ContextIntegrityError(
                f"warp {warp.warp_id}: context corrupt and no fallback "
                f"image exists",
                warp_id=warp.warp_id,
            )
        warp.state.restore_regs(image.regs)
        lds = warp.lds
        if lds is not None and image.lds is not None:
            lds.restore(image.lds)
        warp.dyn_count = image.dyn_count
        warp.probe_counts = dict(image.probe_counts)
        completion = self.sm.pipeline.request(
            cycle, image.nbytes, is_ctx=True, kind="ctx_load"
        )
        warp.mode = WarpMode.RUNNING
        warp.program = warp.main_program
        warp.next_free = max(warp.next_free, completion)
        warp.resume_done_cycle = completion
        warp.active_plan = None
        measurement = self.measurements[warp.warp_id]
        measurement.resume_cycles = completion - cycle
        base = measurement.recovery_cycles
        measurement.recovery_cycles = (
            (0 if base is None else base) + max(0, completion - cycle)
        )
        measurement.degraded = True
        tracer = self.sm.tracer
        if tracer is not None:
            tracer.emit(
                cycle, EventKind.CTX_RELOAD, warp.warp_id,
                nbytes=image.nbytes, dur=completion - cycle,
            )
            tracer.emit(
                completion, EventKind.RECOVER, warp.warp_id,
                action="full_reload",
            )
            tracer.emit(
                completion, EventKind.RESUME_END, warp.warp_id,
                strategy="degraded",
            )
        self.sm.refresh_issuable()  # the warp left the scheduler's list

    # -- resume ----------------------------------------------------------------------

    def resume_warp(self, warp: SimWarp, cycle: int) -> None:
        if warp.mode is WarpMode.DONE:
            return  # drained warps completed; there is nothing to resume
        if warp.mode is not WarpMode.EVICTED:
            raise RuntimeError(f"warp {warp.warp_id} is not evicted")
        warp.resume_start_cycle = cycle
        warp.routine_last_mem_completion = cycle
        tracer = self.sm.tracer
        if tracer is not None:
            tracer.emit(cycle, EventKind.RESUME_START, warp.warp_id)
        if warp.degraded_save:
            # the eviction already fell back to the full save; verify the
            # image (cannot degrade further — a mismatch here is fatal)
            actual = snapshot_checksum(warp.arch_image)
            if actual != warp.ctx_checksum:
                self._integrity_failure(
                    warp, cycle, expected=warp.ctx_checksum, actual=actual,
                    can_degrade=False,
                )
            self._resume_full_image(warp, cycle)
            return
        if warp.active_strategy == "drop":
            snapshot = warp.last_checkpoint
            measurement = self.measurements[warp.warp_id]
            if snapshot is not None and warp.ctx_checksum is not None:
                actual = snapshot_checksum(snapshot)
                if actual != warp.ctx_checksum:
                    self._integrity_failure(
                        warp, cycle, expected=warp.ctx_checksum,
                        actual=actual, can_degrade=True,
                    )
                    # degrade: discard the corrupt checkpoint and restart
                    # from the kernel's beginning (the CKPT fallback)
                    warp.last_checkpoint = None
                    snapshot = None
                    measurement.degraded = True
                    if self.faults is not None:
                        self.faults.stats.restarts += 1
                    if tracer is not None:
                        tracer.emit(
                            cycle, EventKind.DEGRADE, warp.warp_id,
                            fallback="restart", reason="corrupt_checkpoint",
                        )
                        tracer.emit(
                            cycle, EventKind.RECOVER, warp.warp_id,
                            action="restart",
                        )
            if snapshot is None:
                # never checkpointed: restart the kernel from the beginning
                warp.state.clear()
                if self.warp_initializer is None:
                    raise RuntimeError("no warp initializer attached")
                self.warp_initializer(warp)
                warp.dyn_count = 0
                warp.probe_counts = {}
                completion = cycle
            else:
                warp.state.restore_regs(snapshot.regs)
                lds = warp.lds
                if lds is not None and snapshot.lds is not None:
                    lds.restore(snapshot.lds)
                warp.dyn_count = snapshot.dyn_count
                warp.probe_counts = dict(snapshot.probe_counts)
                completion = self.sm.pipeline.request(
                    cycle, snapshot.nbytes, is_ctx=True, kind="ctx_load"
                )
            if tracer is not None:
                tracer.emit(
                    cycle, EventKind.CTX_RELOAD, warp.warp_id,
                    nbytes=snapshot.nbytes if snapshot else 0,
                    dur=completion - cycle,
                )
            warp.mode = WarpMode.RUNNING
            warp.next_free = max(warp.next_free, completion)
            # resume "completes" when execution re-reaches the preempted
            # dynamic instruction (SM clears the watch when it happens);
            # `is None`, not truthiness — a watch target of dyn 0 is real
            if warp.resume_watch_dyn is None:
                warp.resume_watch_dyn = warp.dyn_count
            warp.resume_done_cycle = None
            measurement.resume_cycles = None
            self.sm.refresh_issuable()  # the warp left the scheduler's list
            return
        if warp.ctx_checksum is not None:
            actual = context_checksum(warp.state.ctx_buffer)
            if actual != warp.ctx_checksum:
                self._integrity_failure(
                    warp, cycle, expected=warp.ctx_checksum, actual=actual,
                    can_degrade=warp.arch_image is not None,
                )
                # degrade: the flashback context is untrustworthy, so fall
                # back to restoring the signal-time image whole (the full
                # register save's restore path)
                if tracer is not None:
                    tracer.emit(
                        cycle, EventKind.DEGRADE, warp.warp_id,
                        fallback="full_save", reason="corrupt_context",
                    )
                if self.faults is not None:
                    self.faults.stats.degraded_resumes += 1
                self._resume_full_image(warp, cycle)
                return
        plan = warp.active_plan
        assert plan is not None, "evicted warp has no plan"
        warp.mode = WarpMode.RESUME_ROUTINE
        warp.program = plan.resume_routine
        warp.state.pc = 0
        if tracer is not None:
            tracer.emit(
                cycle, EventKind.ROUTINE_START, warp.warp_id,
                routine="resume", context_bytes=plan.context_bytes,
            )
        self.sm.refresh_issuable()  # the warp left the scheduler's list

    def rearm(self, warp: SimWarp) -> None:
        """Archive a completed preemption round and allow another signal.

        The single-signal experiment preempts each warp exactly once; the
        model checker explores *multiple* rounds per warp.  Once a warp is
        back to RUNNING in the main program this resets the controller's
        per-warp bookkeeping — the finished measurement moves to
        :attr:`history`, the warp becomes signalable again, and the fault /
        integrity fields from the finished round are cleared so the next
        round starts from the same invariants as the first.
        """
        if warp.mode is not WarpMode.RUNNING and warp.mode is not WarpMode.DONE:
            raise RuntimeError(
                f"warp {warp.warp_id} cannot rearm mid-round ({warp.mode.value})"
            )
        measurement = self.measurements.pop(warp.warp_id, None)
        if measurement is not None:
            self.history.append(measurement)
        self.delivered.discard(warp.warp_id)
        self._draining.discard(warp.warp_id)
        warp.active_strategy = None
        warp.active_plan = None
        warp.signal_cycle = None
        warp.preempt_done_cycle = None
        warp.resume_start_cycle = None
        warp.resume_done_cycle = None
        warp.resume_watch_dyn = None
        warp.ctx_checksum = None
        warp.arch_image = None
        warp.degraded_save = False
        self.armed = True

    def all_evicted(self) -> bool:
        """All signalled target warps have released the SM: their context is
        saved (EVICTED) or, for draining warps, they finished (DONE)."""
        for warp in self.sm.warps:
            if warp.warp_id not in self.target_warp_ids:
                continue
            if warp.warp_id not in self.delivered:
                return False
            if warp.mode not in (WarpMode.EVICTED, WarpMode.DONE):
                return False
        return True
