"""Whole-device snapshot capture and restore.

:func:`capture_snapshot` serializes the *entire* simulated device into a
payload tree: register files, exec masks, LDS, device memory, per-warp
scoreboards, and the in-flight preemption/recovery state (pending
signals, measurements, saved contexts, CKPT checkpoints, armed fault
state) — everything :func:`repro.sim.gpu.drive_experiment_loop` needs to
re-enter an experiment mid-flight.  :func:`restore_snapshot` rebuilds
that state onto a freshly-built launch, which may use a *differently
configured* GPU (other timing parameters, other execution core) as long
as the functional shape — kernel, warp geometry, register allocation —
matches.

Capture is functional-only: every array is copied, nothing on the
simulator is mutated (the fast core's deferred vector queue is flushed
first, exactly as :meth:`repro.sim.sm.SM.step` does at its consistency
boundary), so snapshotting cannot change a single simulated cycle — the
same zero-observer-effect contract as :mod:`repro.obs`.

Cross-process portability: per-warp scoreboards key on *process-local*
interned register ids (:func:`repro.sim.tables.reg_id`); the payload
stores stable ``(kind, index)`` descriptors instead and re-interns on
restore, so a snapshot written by one worker restores in any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..faults.injector import FaultInjector, InjectedFault
from ..faults.plan import FaultKind
from ..isa.registers import Reg, RegKind
from ..obs import make_tracer
from ..sim.gpu import (
    ExperimentResult,
    LaunchSpec,
    _initializer_for,
    build_launch,
    drive_experiment_loop,
    finalize_measurements,
)
from ..sim.memory import TrackedMemory
from ..sim.preemption import PreemptionController, WarpMeasurement
from ..sim.tables import reg_id, reg_of
from ..sim.warp import CkptSnapshot, SimWarp, WarpMode
from .format import (
    SNAP_VERSION,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
)

__all__ = [
    "capture_snapshot",
    "restore_snapshot",
    "run_snapshot_experiment",
    "RestoredExperiment",
    "restore_experiment",
    "complete_experiment",
    "save_snapshot",
    "load_snapshot",
    "describe_snapshot",
]


def _flush_fast(sm) -> None:
    """Bring the fast core to its consistency boundary (same guard as
    ``SM.step``): deferred vector work must land before state is read."""
    fast = sm._fast
    if fast is not None and fast.queue:
        fast.flush()


# -- capture ---------------------------------------------------------------------


def _reg_descr(rid: int) -> list:
    reg = reg_of(rid)
    return [reg.kind.value, reg.index]


def _ckpt_payload(snapshot: CkptSnapshot | None):
    if snapshot is None:
        return None
    vregs, sregs, exec_mask, scc, pc = snapshot.regs
    return {
        "vregs": vregs.copy(),
        "sregs": sregs.copy(),
        "exec_mask": exec_mask.copy(),
        "scc": int(scc),
        "pc": int(pc),
        "lds": snapshot.lds.copy() if snapshot.lds is not None else None,
        "dyn_count": snapshot.dyn_count,
        "probe_counts": dict(snapshot.probe_counts),
        "nbytes": snapshot.nbytes,
        "pc_after_probe": snapshot.pc_after_probe,
    }


def _program_ref(warp: SimWarp) -> dict:
    if warp.program is warp.main_program:
        return {"where": "main", "plan": None}
    plan = warp.active_plan
    if plan is not None:
        if warp.program is plan.preempt_routine:
            return {"where": "preempt", "plan": plan.position}
        if warp.program is plan.resume_routine:
            return {"where": "resume", "plan": plan.position}
    raise SnapshotError(
        f"warp {warp.warp_id}: executing a program the snapshot cannot "
        f"identify (mode {warp.mode.value}, no matching plan routine)"
    )


def _warp_payload(warp: SimWarp) -> dict:
    state = warp.state
    return {
        "warp_id": warp.warp_id,
        "block_id": warp.block_id,
        "mode": warp.mode.value,
        "program": _program_ref(warp),
        "vregs": state.vregs.copy(),
        "sregs": state.sregs.copy(),
        "exec_mask": state.exec_mask.copy(),
        "scc": int(state.scc),
        "pc": int(state.pc),
        "ctx_buffer": {
            slot: (value.copy() if isinstance(value, np.ndarray) else int(value))
            for slot, value in state.ctx_buffer.items()
        },
        "lds": warp.lds.words.copy() if warp.lds is not None else None,
        "lds_nbytes": warp.lds.nbytes if warp.lds is not None else None,
        # sorted by the *stable* (kind, index) descriptor — interned ids
        # are assigned in first-seen order per process, so sorting by id
        # would make the byte order worker-dependent
        "pending": sorted(
            [*_reg_descr(rid), completion]
            for rid, completion in warp.pending.items()
        ),
        # canonical tight watermark, not the raw monotone one: the cores
        # advance pending_max differently (the fast core batches), but any
        # value >= every outstanding completion is sound — storing the
        # tight bound keeps snapshot bytes core-independent
        "pending_max": max(warp.pending.values(), default=0),
        "next_free": warp.next_free,
        "dyn_count": warp.dyn_count,
        "dyn_break": warp.dyn_break,
        "preempt_flag": warp.preempt_flag,
        "active_strategy": warp.active_strategy,
        "active_plan": (
            warp.active_plan.position if warp.active_plan is not None else None
        ),
        "signal_cycle": warp.signal_cycle,
        "preempt_done_cycle": warp.preempt_done_cycle,
        "resume_start_cycle": warp.resume_start_cycle,
        "resume_done_cycle": warp.resume_done_cycle,
        "routine_last_mem_completion": warp.routine_last_mem_completion,
        "resume_watch_dyn": warp.resume_watch_dyn,
        "probe_counts": dict(warp.probe_counts),
        "last_checkpoint": _ckpt_payload(warp.last_checkpoint),
        "ctx_checksum": warp.ctx_checksum,
        "arch_image": _ckpt_payload(warp.arch_image),
        "degraded_save": warp.degraded_save,
    }


def _measurement_payload(m: WarpMeasurement) -> dict:
    return {
        "warp_id": m.warp_id,
        "signal_pc": m.signal_pc,
        "signal_cycle": m.signal_cycle,
        "latency_cycles": m.latency_cycles,
        "resume_cycles": m.resume_cycles,
        "context_bytes": m.context_bytes,
        "flashback_pos": m.flashback_pos,
        "degraded": m.degraded,
        "recovery_cycles": m.recovery_cycles,
    }


def memory_payload(memory) -> dict:
    """Sparse (nonzero) image of device memory + dirty set when tracked."""
    words = memory._words
    idx = np.flatnonzero(words)
    payload = {
        "size_bytes": memory.size_bytes,
        "idx": idx.astype(np.int64),
        "val": words[idx].copy(),
    }
    if isinstance(memory, TrackedMemory):
        payload["dirty"] = memory.dirty_words()
    return payload


def _controller_payload(controller: PreemptionController) -> dict:
    return {
        "signal_dyn": controller.signal_dyn,
        "armed": controller.armed,
        "target": sorted(controller.target_warp_ids),
        "delivered": sorted(controller.delivered),
        "draining": sorted(controller._draining),
        "measurements": {
            wid: _measurement_payload(m)
            for wid, m in sorted(controller.measurements.items())
        },
        "history": [_measurement_payload(m) for m in controller.history],
    }


def _injector_payload(injector: FaultInjector) -> dict:
    return {
        "seed": injector.plan.seed,
        "rng": injector.rng.getstate(),
        "stats": {
            name: getattr(injector.stats, name)
            for name in (
                "injected", "integrity_failures", "degraded_saves",
                "degraded_resumes", "restarts", "duplicates_ignored",
                "redelivered", "stalls",
            )
        },
        "injected": [
            {
                "kind": fault.kind.value,
                "warp_id": fault.warp_id,
                "cycle": fault.cycle,
                "detail": dict(fault.detail),
            }
            for fault in injector.injected
        ],
        "drop_left": dict(injector._drop_left),
        "dropped": set(injector._dropped),
        "dup_fired": set(injector._dup_fired),
        "abort_count": dict(injector._abort_count),
        "abort_fired": set(injector._abort_fired),
        "corrupt_fired": set(injector._corrupt_fired),
        "stall_fired": set(injector._stall_fired),
    }


def capture_snapshot(
    sm,
    controller: PreemptionController | None = None,
    *,
    loop: dict | None = None,
    label: str = "",
    memory: dict | None = None,
) -> dict:
    """Serialize the whole device into a payload tree.

    *loop* carries the experiment driver's state across the boundary
    (``resumed``/``resume_at``/``signal_dyn``/``resume_gap``); *memory*
    lets the speculative checkpointer substitute its pre-assembled
    base+patch image for the stop-the-world one.
    """
    _flush_fast(sm)
    prepared = controller.prepared if controller is not None else None
    sample = sm.warps[0].state if sm.warps else None
    payload = {
        "meta": {
            "version": SNAP_VERSION,
            "label": label,
            "kernel": prepared.kernel.name if prepared is not None else "",
            "mechanism": prepared.mechanism if prepared is not None else "",
            "program_len": (
                len(prepared.kernel.program.instructions)
                if prepared is not None
                else None
            ),
            "warp_size": sample.warp_size if sample is not None else None,
            "num_vregs": sample.num_vregs if sample is not None else None,
            "num_sregs": sample.num_sregs if sample is not None else None,
            "warp_count": len(sm.warps),
        },
        "sm": {
            "cycle": sm.cycle,
            "rr": sm._rr,
            "stats": {
                "cycles": sm.stats.cycles,
                "issued": sm.stats.issued,
                "issued_by_mode": dict(sm.stats.issued_by_mode),
                "pc_counts": list(sm.stats.pc_counts),
            },
            "pipeline": {
                "port_free": sm.pipeline._port_free,
                "total_bytes": sm.pipeline.total_bytes,
                "total_requests": sm.pipeline.total_requests,
                "stats_by_kind": dict(sm.pipeline.stats_by_kind),
            },
        },
        "memory": memory if memory is not None else memory_payload(sm.memory),
        "warps": [_warp_payload(w) for w in sm.warps],
        "controller": (
            _controller_payload(controller) if controller is not None else None
        ),
        "injector": (
            _injector_payload(controller.faults)
            if controller is not None and controller.faults is not None
            else None
        ),
        "loop": dict(loop) if loop is not None else None,
    }
    return payload


# -- restore ---------------------------------------------------------------------


def _restore_ckpt(payload) -> CkptSnapshot | None:
    if payload is None:
        return None
    return CkptSnapshot(
        regs=(
            payload["vregs"],
            payload["sregs"],
            payload["exec_mask"].astype(bool),
            payload["scc"],
            payload["pc"],
        ),
        lds=payload["lds"],
        dyn_count=payload["dyn_count"],
        probe_counts=dict(payload["probe_counts"]),
        nbytes=payload["nbytes"],
        pc_after_probe=payload["pc_after_probe"],
    )


def restore_memory(payload: dict, memory) -> None:
    words = memory._words
    idx = np.asarray(payload["idx"], dtype=np.int64)
    if "base_idx" in payload:
        # speculative image: base as of the begin point, patched with the
        # words dirtied while execution ran ahead (see snap.speculative)
        base_idx = np.asarray(payload["base_idx"], dtype=np.int64)
        all_idx = np.concatenate([base_idx, idx]) if len(idx) else base_idx
    else:
        all_idx = idx
    if len(all_idx) and int(all_idx.max()) >= len(words):
        raise SnapshotError(
            f"snapshot memory image ({payload['size_bytes']} bytes) does not "
            f"fit the target device memory ({memory.size_bytes} bytes)"
        )
    words[:] = 0
    if "base_idx" in payload:
        words[np.asarray(payload["base_idx"], dtype=np.int64)] = payload[
            "base_val"
        ]
    if len(idx):
        words[idx] = payload["val"]
    if isinstance(memory, TrackedMemory):
        dirty = payload.get("dirty")
        memory._dirty = set(dirty) if dirty is not None else set(
            int(w) for w in np.flatnonzero(words)
        )


def _restore_warp(warp: SimWarp, payload: dict, prepared) -> None:
    state = warp.state
    meta_shape = (state.num_vregs, state.warp_size)
    if payload["vregs"].shape != meta_shape:
        raise SnapshotError(
            f"warp {warp.warp_id}: snapshot register shape "
            f"{payload['vregs'].shape} does not match target {meta_shape}"
        )
    warp.mode = WarpMode(payload["mode"])
    plan_pos = payload["active_plan"]
    warp.active_plan = (
        prepared.plans[plan_pos] if plan_pos is not None else None
    )
    ref = payload["program"]
    if ref["where"] == "main":
        warp.program = warp.main_program
    else:
        plan = prepared.plans[ref["plan"]]
        warp.program = (
            plan.preempt_routine if ref["where"] == "preempt"
            else plan.resume_routine
        )
    # in-place writes: the fast core's shared register backing (and any
    # adopted views) must keep pointing at the same arrays
    state.vregs[...] = payload["vregs"]
    state.sregs[...] = payload["sregs"]
    state.exec_mask[...] = payload["exec_mask"].astype(bool)
    state.exec_all = bool(state.exec_mask.all())
    state.scc = payload["scc"]
    state.pc = payload["pc"]
    state.ctx_buffer = {
        slot: (value.copy() if isinstance(value, np.ndarray) else value)
        for slot, value in payload["ctx_buffer"].items()
    }
    if payload["lds"] is not None:
        if warp.lds is None:
            raise SnapshotError(
                f"warp {warp.warp_id}: snapshot has LDS but the target "
                f"launch allocated none"
            )
        warp.lds.words[...] = payload["lds"]
    warp.pending = {
        reg_id(Reg(RegKind(kind), index)): completion
        for kind, index, completion in payload["pending"]
    }
    warp.pending_max = payload["pending_max"]
    warp.next_free = payload["next_free"]
    warp.dyn_count = payload["dyn_count"]
    warp.dyn_break = payload["dyn_break"]
    warp.preempt_flag = payload["preempt_flag"]
    warp.active_strategy = payload["active_strategy"]
    warp.signal_cycle = payload["signal_cycle"]
    warp.preempt_done_cycle = payload["preempt_done_cycle"]
    warp.resume_start_cycle = payload["resume_start_cycle"]
    warp.resume_done_cycle = payload["resume_done_cycle"]
    warp.routine_last_mem_completion = payload["routine_last_mem_completion"]
    warp.resume_watch_dyn = payload["resume_watch_dyn"]
    warp.probe_counts = dict(payload["probe_counts"])
    warp.last_checkpoint = _restore_ckpt(payload["last_checkpoint"])
    warp.ctx_checksum = payload["ctx_checksum"]
    warp.arch_image = _restore_ckpt(payload["arch_image"])
    warp.degraded_save = payload["degraded_save"]
    # program identity changed: drop every per-program cache
    warp._tables = None
    warp._fast_rt = None
    warp._lat_list = None
    warp._lat_tables = None


def _restore_measurement(payload: dict) -> WarpMeasurement:
    return WarpMeasurement(**payload)


def _restore_controller(controller: PreemptionController, payload: dict) -> None:
    if controller.signal_dyn != payload["signal_dyn"]:
        raise SnapshotError(
            f"snapshot signal_dyn {payload['signal_dyn']} does not match "
            f"the restored experiment's {controller.signal_dyn}"
        )
    controller.armed = payload["armed"]
    controller.delivered = set(payload["delivered"])
    controller._draining = set(payload["draining"])
    controller.measurements = {
        wid: _restore_measurement(m)
        for wid, m in payload["measurements"].items()
    }
    controller.history = [
        _restore_measurement(m) for m in payload["history"]
    ]


def _restore_injector(injector: FaultInjector, payload: dict) -> None:
    if injector.plan.seed != payload["seed"]:
        raise SnapshotError(
            f"snapshot fault seed {payload['seed']} does not match the "
            f"restored plan's seed {injector.plan.seed}"
        )
    injector.rng.setstate(payload["rng"])
    for name, value in payload["stats"].items():
        setattr(injector.stats, name, value)
    injector.injected = [
        InjectedFault(
            FaultKind(f["kind"]), f["warp_id"], f["cycle"], dict(f["detail"])
        )
        for f in payload["injected"]
    ]
    injector._drop_left = dict(payload["drop_left"])
    injector._dropped = set(payload["dropped"])
    injector._dup_fired = set(payload["dup_fired"])
    injector._abort_count = dict(payload["abort_count"])
    injector._abort_fired = set(payload["abort_fired"])
    injector._corrupt_fired = set(payload["corrupt_fired"])
    injector._stall_fired = set(payload["stall_fired"])


def restore_snapshot(
    payload: dict,
    sm,
    controller: PreemptionController | None = None,
) -> None:
    """Rebuild the captured device state onto *sm* (freshly launched).

    The target may run a different configuration (timing parameters,
    execution core, scheduler knobs); the *functional* shape — warp
    count, register geometry, program length — must match the snapshot
    and is checked before anything is touched.
    """
    meta = payload["meta"]
    if meta["warp_count"] != len(sm.warps):
        raise SnapshotError(
            f"snapshot holds {meta['warp_count']} warps, target launched "
            f"{len(sm.warps)}"
        )
    if sm.warps:
        sample = sm.warps[0].state
        for field, actual in (
            ("warp_size", sample.warp_size),
            ("num_vregs", sample.num_vregs),
            ("num_sregs", sample.num_sregs),
        ):
            if meta[field] != actual:
                raise SnapshotError(
                    f"snapshot {field}={meta[field]} does not match the "
                    f"target launch's {actual}"
                )
    prepared = controller.prepared if controller is not None else None
    if prepared is not None and meta["mechanism"] != prepared.mechanism:
        raise SnapshotError(
            f"snapshot was taken under mechanism {meta['mechanism']!r}, "
            f"target prepared {prepared.mechanism!r}"
        )
    _flush_fast(sm)
    restore_memory(payload["memory"], sm.memory)
    by_id = {w.warp_id: w for w in sm.warps}
    for warp_payload in payload["warps"]:
        warp = by_id.get(warp_payload["warp_id"])
        if warp is None:
            raise SnapshotError(
                f"snapshot warp {warp_payload['warp_id']} missing from the "
                f"target launch"
            )
        _restore_warp(warp, warp_payload, prepared)
    sm.cycle = payload["sm"]["cycle"]
    sm._rr = payload["sm"]["rr"]
    stats = payload["sm"]["stats"]
    sm.stats.cycles = stats["cycles"]
    sm.stats.issued = stats["issued"]
    sm.stats.issued_by_mode = dict(stats["issued_by_mode"])
    sm.stats.pc_counts = list(stats["pc_counts"])
    pipe = payload["sm"]["pipeline"]
    sm.pipeline._port_free = pipe["port_free"]
    sm.pipeline.total_bytes = pipe["total_bytes"]
    sm.pipeline.total_requests = pipe["total_requests"]
    sm.pipeline.stats_by_kind = dict(pipe["stats_by_kind"])
    if controller is not None and payload["controller"] is not None:
        _restore_controller(controller, payload["controller"])
    if payload["injector"] is not None:
        injector = controller.faults if controller is not None else None
        if injector is None:
            raise SnapshotError(
                "snapshot carries armed fault state; restore_experiment "
                "needs the same fault plan to rebuild the injector"
            )
        _restore_injector(injector, payload["injector"])
    sm.refresh_issuable()


# -- experiment-level save/restore ------------------------------------------------


def run_snapshot_experiment(
    spec: LaunchSpec,
    prepared,
    config,
    signal_dyn: int,
    *,
    resume_gap: int = 2000,
    snap_cycle: int | None = None,
    snap_on_evicted: bool = False,
    faults=None,
    label: str = "",
) -> tuple[dict | None, ExperimentResult]:
    """Run a preemption experiment, capturing one snapshot mid-flight.

    The capture point is either the first loop iteration at or past
    *snap_cycle*, or (with *snap_on_evicted*) the iteration where every
    target warp has released the SM — a point both cores reach in the
    same simulated state, which the migration cost model relies on.
    Returns ``(payload, result)``; *payload* is ``None`` if the trigger
    never fired (e.g. *snap_cycle* past the end of the run).
    """
    from ..sim.gpu import run_preemption_experiment

    captured: list[dict] = []

    def hook(sm, controller, target_warps, state) -> None:
        if captured:
            return
        if snap_on_evicted:
            # the pre-resume observation (see drive_experiment_loop): all
            # contexts saved and sm.cycle warped to the resume deadline —
            # the one point both cores reach in the same simulated state
            if (
                state["resumed"]
                or state["resume_at"] is None
                or sm.cycle < state["resume_at"]
                or not controller.all_evicted()
            ):
                return
        elif snap_cycle is None or sm.cycle < snap_cycle:
            return
        captured.append(
            capture_snapshot(sm, controller, loop=state, label=label)
        )

    result = run_preemption_experiment(
        spec,
        prepared,
        config,
        signal_dyn,
        resume_gap=resume_gap,
        verify=False,
        faults=faults,
        loop_hook=hook,
    )
    return (captured[0] if captured else None), result


@dataclass
class RestoredExperiment:
    """A restored mid-flight experiment, ready for :func:`complete_experiment`."""

    sm: object
    controller: PreemptionController
    target_warps: list
    memory: object
    config: object
    injector: FaultInjector | None
    loop: dict


def restore_experiment(
    payload: dict,
    spec: LaunchSpec,
    prepared,
    config,
    *,
    faults=None,
) -> RestoredExperiment:
    """Build a fresh launch under *config* and restore *payload* onto it.

    *config* may differ from the snapshotting configuration in timing,
    scheduler knobs, and execution core; *spec*/*prepared* must describe
    the same kernel and mechanism.  *faults* must be the same fault plan
    the snapshotting run used (when it used one).
    """
    loop = payload.get("loop")
    if loop is None:
        raise SnapshotError(
            "snapshot has no experiment-loop state; it was not captured "
            "by run_snapshot_experiment"
        )
    sm, target_warps, memory = build_launch(
        spec, config, kernel_override=prepared.kernel
    )
    sm.tracer = make_tracer(config, prepared.mechanism)
    controller = PreemptionController(
        sm=sm,
        prepared=prepared,
        target_warp_ids={w.warp_id for w in target_warps},
        signal_dyn=loop["signal_dyn"],
        warp_initializer=_initializer_for(spec),
    )
    injector = None
    if faults is not None:
        injector = faults.build() if hasattr(faults, "build") else faults
        injector.attach(sm, controller)
    elif payload.get("injector") is not None:
        raise SnapshotError(
            "snapshot carries armed fault state; pass the same fault plan "
            "to restore_experiment(faults=...)"
        )
    restore_snapshot(payload, sm, controller)
    return RestoredExperiment(
        sm=sm,
        controller=controller,
        target_warps=target_warps,
        memory=memory,
        config=config,
        injector=injector,
        loop=dict(loop),
    )


def complete_experiment(
    restored: RestoredExperiment,
    *,
    ref_memory=None,
) -> ExperimentResult:
    """Drive a restored experiment to completion.

    With *ref_memory* (a clean run's final :class:`DeviceMemory`), the
    result's ``verified`` reflects bit-identity against it — the same
    ground truth :func:`run_preemption_experiment` checks.
    """
    loop = restored.loop
    sm = restored.sm
    controller = restored.controller
    target_warps = restored.target_warps
    drive_experiment_loop(
        sm,
        controller,
        target_warps,
        restored.config,
        signal_dyn=loop["signal_dyn"],
        resume_gap=loop["resume_gap"],
        injector=restored.injector,
        resumed=loop["resumed"],
        resume_at=loop["resume_at"],
    )
    finalize_measurements(sm, controller, target_warps)
    verified = (
        restored.memory == ref_memory if ref_memory is not None else False
    )
    measurements = [
        controller.measurements[w.warp_id]
        for w in target_warps
        if w.warp_id in controller.measurements
    ]
    return ExperimentResult(
        mechanism=controller.prepared.mechanism,
        measurements=measurements,
        total_cycles=sm.cycle,
        verified=verified,
        reference_cycles=None,
        memory=restored.memory,
        trace=sm.tracer,
        faults=restored.injector,
        sm=sm,
    )


# -- file helpers -----------------------------------------------------------------


def save_snapshot(path: str | Path, payload: dict) -> int:
    """Encode and atomically write *payload*; returns the byte size."""
    data = encode_snapshot(payload)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(target)
    return len(data)


def load_snapshot(path: str | Path) -> dict:
    return decode_snapshot(Path(path).read_bytes())


def describe_snapshot(payload: dict) -> dict:
    """JSON-able summary of a decoded snapshot (the CLI ``verify`` view)."""
    meta = payload["meta"]
    modes: dict[str, int] = {}
    for warp in payload["warps"]:
        modes[warp["mode"]] = modes.get(warp["mode"], 0) + 1
    loop = payload.get("loop") or {}
    return {
        "version": meta["version"],
        "label": meta["label"],
        "kernel": meta["kernel"],
        "mechanism": meta["mechanism"],
        "warp_count": meta["warp_count"],
        "warp_size": meta["warp_size"],
        "cycle": payload["sm"]["cycle"],
        "warp_modes": modes,
        "memory_words": len(payload["memory"]["idx"]),
        "has_fault_state": payload["injector"] is not None,
        "resumed": loop.get("resumed"),
        "resume_at": loop.get("resume_at"),
    }
