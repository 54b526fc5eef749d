"""Dedicated routine generation with symbolic-state validation.

Given the derivation DAG chosen by the :class:`~repro.ctxback.valueflow.Resolver`
for one (signal position ``n``, flashback point ``p``), this module emits the
two executable programs of paper §IV-A:

* the **preemption routine** — ``ctx_store`` of every directly-saved value,
  then preemption-time reverts (inverse instructions) followed by stores of
  the recovered values, then the LDS swap;
* the **resuming routine** — an interleaving of ``ctx_load``s, copies of the
  re-executed in-between instructions, register-to-register moves, and
  resume-time reverts, ending with control transferred back to ``n``.

Generation tracks a *symbolic register state* (register -> value) and only
emits an instruction when its operands verifiably hold the required values.
A conflict (e.g. a clobbered one-holder value) raises
:class:`GenerationFailure` naming the culprit value; the plan builder then
pins that value to direct-save and retries, degrading in the limit to the
LIVE mechanism, which is always schedulable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from ..compiler.usedef import Value
from ..isa.instruction import Instruction, Program, inst
from ..isa.registers import Reg, RegKind
from .plan import SavedValue, ctx_load_for, ctx_store_for
from .reverting import RevertOpportunity, build_revert_instruction, other_src_positions
from .valueflow import DerivationKind, Node, SignalSite


class GenerationFailure(Exception):
    """A value could not be materialised where/when the plan needed it."""

    def __init__(self, value: Value, reason: str) -> None:
        super().__init__(f"{value!r}: {reason}")
        self.value = value
        self.reason = reason


@dataclass
class GeneratedRoutines:
    preempt: Program
    resume: Program
    saved: list[SavedValue]
    saved_bytes: int
    reexec_positions: list[int]
    preempt_revert_count: int
    resume_extra_ops: int


@lru_cache(maxsize=None)
def _mov_for(dst: Reg, src: Reg) -> Instruction:
    """Register-to-register move, interned like the context-buffer
    instructions (:func:`~repro.ctxback.plan.ctx_store_for`)."""
    if dst.kind is RegKind.VECTOR:
        return inst("v_mov", dst, src)
    if src.kind is RegKind.VECTOR:
        raise ValueError("cannot move a vector register into a scalar register")
    return inst("s_mov", dst, src)


class _SymbolicState:
    """Register -> value map with a reverse index."""

    def __init__(self, initial: dict[Reg, Value] | None = None) -> None:
        self.regs: dict[Reg, Value] = {}
        self.holders: dict[int, set[Reg]] = {}
        for reg, value in (initial or {}).items():
            self.set(reg, value)

    def set(self, reg: Reg, value: Value) -> None:
        old = self.regs.get(reg)
        if old is not None:
            held = self.holders.get(old.vid)
            if held is not None:
                held.discard(reg)
        self.regs[reg] = value
        self.holders.setdefault(value.vid, set()).add(reg)

    def holds(self, reg: Reg, value: Value) -> bool:
        current = self.regs.get(reg)
        return current is not None and current.vid == value.vid

    def holder_of(self, value: Value) -> Reg | None:
        held = self.holders.get(value.vid)
        if not held:
            return None
        # prefer the cheapest register class, then the lowest index for
        # deterministic output.
        return min(held, key=lambda r: (r.kind is RegKind.VECTOR, str(r)))


def _collect(roots: list[Node]):
    """Split the derivation DAG into resume-side and preempt-side node sets."""
    resume_nodes: dict[int, Node] = {}
    preempt_exec: dict[int, Node] = {}

    def collect_preempt(node: Node) -> None:
        if node.kind is DerivationKind.REVERT_PREEMPT:
            if node.value.vid in preempt_exec:
                return
            preempt_exec[node.value.vid] = node
            for child in node.inputs:
                collect_preempt(child)
        # DIRECT_SAVE inputs of a preempt revert are plain register reads at
        # preemption time; nothing to emit for them.

    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.value.vid in resume_nodes:
            continue
        resume_nodes[node.value.vid] = node
        if node.kind is DerivationKind.REVERT_PREEMPT:
            collect_preempt(node)
        else:
            stack.extend(node.inputs)
    return resume_nodes, preempt_exec


def _kill_slot(site: SignalSite, value: Value, pos: int) -> int:
    for kill in site.region.kills_of.get(value, ()):
        if kill.pos == pos:
            return kill.slot
    raise GenerationFailure(value, f"no kill record at {pos}")


def _revert_parts(site: SignalSite, node: Node):
    """(instruction, opportunity, new_value, other_values, implicit_pairs)."""
    instruction = site.instruction(node.pos)
    slot = _kill_slot(site, node.value, node.pos)
    opportunity = None
    for candidate_spec_pos, revert_spec in instruction.spec.revert.items():
        if candidate_spec_pos == node.src_pos:
            opportunity = RevertOpportunity(node.src_pos, revert_spec)
            break
    if opportunity is None:
        raise GenerationFailure(node.value, "revert spec vanished")
    region = site.region
    new_value = region.def_values_at(node.pos)[slot]
    use_values = region.use_values_at(node.pos)
    uses = instruction.uses()
    other_values: dict[int, Value] = {}
    reg_src_index = -1
    wanted = set(other_src_positions(instruction, node.src_pos))
    for i, src in enumerate(instruction.srcs):
        if isinstance(src, Reg):
            reg_src_index += 1
            if i in wanted:
                other_values[i] = use_values[reg_src_index]
    n_src_regs = len(instruction.src_regs)
    n_uses = len(uses)  # excludes any RMW extras appended past the real uses
    implicit_pairs = list(
        zip(uses[n_src_regs:n_uses], use_values[n_src_regs:n_uses])
    )
    return instruction, opportunity, new_value, other_values, implicit_pairs


def generate_routines(
    site: SignalSite,
    p: int,
    roots: dict[Reg, Node],
    live_regs_at_n: Sequence[Reg],
    lds_bytes: int,
) -> GeneratedRoutines:
    """Emit preemption and resuming routines for flashback point *p*.

    ``roots`` maps each live register at ``n`` to the derivation of the value
    it must hold when execution resumes at ``n``.  ``live_regs_at_n`` lists
    those registers in the order their values are materialised; the pass
    uses name order.
    """
    resume_nodes, preempt_exec = _collect(list(roots.values()))

    # ---------------- preemption routine ----------------
    preempt = Program()
    saved: list[SavedValue] = []
    slot_of: dict[int, SavedValue] = {}
    offset = 0

    def emit_save(value: Value, reg: Reg) -> None:
        nonlocal offset
        if value.vid in slot_of:
            return
        nbytes = reg.context_bytes(site.rf_spec.warp_size)
        preempt.append(ctx_store_for(reg, offset))
        record = SavedValue(value, reg, offset, nbytes)
        saved.append(record)
        slot_of[value.vid] = record
        offset += nbytes

    for node in resume_nodes.values():
        if node.kind is DerivationKind.DIRECT_SAVE:
            emit_save(node.value, node.source_reg)

    # Preemption-time reverts, greedily ordered by input readiness.  Most
    # plans have none, so the symbolic state is built only when needed.
    state = _SymbolicState(site.end_state) if preempt_exec else None
    pending = list(preempt_exec.values())
    while pending:
        progressed = False
        still_pending = []
        for node in pending:
            instruction, opportunity, new_value, other_values, implicit_pairs = (
                _revert_parts(site, node)
            )
            new_holder = state.holder_of(new_value)
            other_holders = {
                i: state.holder_of(v) for i, v in other_values.items()
            }
            implicit_ok = all(state.holds(reg, v) for reg, v in implicit_pairs)
            if (
                new_holder is None
                or any(h is None for h in other_holders.values())
                or not implicit_ok
            ):
                still_pending.append(node)
                continue
            dst = node.source_reg
            preempt.append(
                build_revert_instruction(
                    instruction, opportunity, dst, new_holder, other_holders
                )
            )
            state.set(dst, node.value)
            progressed = True
        if still_pending and not progressed:
            raise GenerationFailure(
                still_pending[0].value, "preemption-time revert inputs clobbered"
            )
        pending = still_pending

    for node in resume_nodes.values():
        if node.kind is DerivationKind.REVERT_PREEMPT:
            holder = state.holder_of(node.value)
            if holder is None:
                raise GenerationFailure(node.value, "revert did not materialise")
            emit_save(node.value, holder)

    if lds_bytes:
        preempt.append(inst("ctx_store_lds", lds_bytes))

    # ---------------- resuming routine ----------------
    resume = Program()
    rstate = _SymbolicState()
    emitting: set[int] = set()

    if lds_bytes:
        resume.append(inst("ctx_load_lds", lds_bytes))

    emitted_positions: set[int] = set()

    def materialize_any(value: Value) -> Reg:
        holder = rstate.holder_of(value)
        if holder is not None:
            return holder
        ensure(value.home, value)
        return value.home

    def ensure(reg: Reg, value: Value) -> None:
        """Make *reg* hold *value*, emitting whatever the derivation needs.

        Re-executions are emitted on demand in *dependency* order — the
        paper's Fig. 6 resume runs I1 before I0 because reverting I2 needs
        I1's result — rather than program order.
        """
        if rstate.holds(reg, value):
            return
        if value.vid in emitting:
            raise GenerationFailure(value, "circular materialisation")
        emitting.add(value.vid)
        try:
            holder = rstate.holder_of(value)
            if holder is not None:
                resume.append(_mov_for(reg, holder))
                rstate.set(reg, value)
                return
            record = slot_of.get(value.vid)
            if record is not None:
                resume.append(ctx_load_for(reg, record.slot))
                rstate.set(reg, value)
                return
            node = resume_nodes.get(value.vid)
            if node is not None and node.kind is DerivationKind.REVERT_RESUME:
                emit_resume_revert(node, reg)
                return
            if node is not None and node.kind is DerivationKind.REEXEC:
                # A displaced re-executed value is simply re-executed again:
                # the region is idempotent, so repeating the instruction is
                # safe by construction (§III-E).
                emit_reexec(node)
                holder = rstate.holder_of(value)
                if holder is None:  # pragma: no cover - reexec defines it
                    raise GenerationFailure(value, "re-execution lost result")
                if holder != reg:
                    resume.append(_mov_for(reg, holder))
                    rstate.set(reg, value)
                return
            raise GenerationFailure(
                value, f"needed in {reg} but not loadable or derivable here"
            )
        finally:
            emitting.discard(value.vid)

    def _ensure_all(pairs) -> None:
        """Ensure several (reg, value) pairs hold simultaneously.

        Materialising one operand can displace another (shared registers);
        one repair round fixes the common case, a second failure aborts.
        """
        for _round in range(2):
            for reg, value in pairs:
                ensure(reg, value)
            if all(rstate.holds(reg, value) for reg, value in pairs):
                return
        for reg, value in pairs:
            if not rstate.holds(reg, value):
                raise GenerationFailure(value, f"operand displaced from {reg}")

    def emit_reexec(node: Node) -> None:
        original = site.instruction(node.pos)
        # effective uses include, at partial-exec positions, the destination
        # registers themselves: a masked write merges with the old lanes
        _ensure_all(
            list(
                zip(
                    site.region.effective_uses_at(node.pos),
                    site.region.use_values_at(node.pos),
                )
            )
        )
        resume.append(original)
        emitted_positions.add(node.pos)
        for reg, value in zip(original.defs(), site.region.def_values_at(node.pos)):
            rstate.set(reg, value)

    def emit_resume_revert(node: Node, dst: Reg) -> None:
        instruction, opportunity, new_value, other_values, implicit_pairs = (
            _revert_parts(site, node)
        )
        new_holder = materialize_any(new_value)
        other_holders = {i: materialize_any(v) for i, v in other_values.items()}
        for implicit_reg, implicit_value in implicit_pairs:
            ensure(implicit_reg, implicit_value)
        # Re-check: materialising one input may have displaced another.
        if not rstate.holds(new_holder, new_value):
            raise GenerationFailure(new_value, "revert input displaced")
        for i, holder in other_holders.items():
            if not rstate.holds(holder, other_values[i]):
                raise GenerationFailure(other_values[i], "revert input displaced")
        resume.append(
            build_revert_instruction(
                instruction, opportunity, dst, new_holder, other_holders
            )
        )
        rstate.set(dst, node.value)

    # Materialise every live register's value, re-executing in-between
    # instructions on demand; then verify nothing got displaced.
    final_pairs = []
    for reg in live_regs_at_n:
        target = site.end_state.get(reg)
        if target is None:
            raise GenerationFailure(
                Value(-1, reg, -1), "live register missing from end state"
            )
        final_pairs.append((reg, target))
    _ensure_all(final_pairs)
    reexec_positions = sorted(emitted_positions)

    resume_extra_ops = len(resume.instructions) - len(reexec_positions)
    return GeneratedRoutines(
        preempt=preempt,
        resume=resume,
        saved=saved,
        saved_bytes=offset,
        reexec_positions=reexec_positions,
        preempt_revert_count=len(preempt_exec),
        resume_extra_ops=resume_extra_ops,
    )
