"""Per-instruction preemption plans — the common currency of all mechanisms.

The compiler side of every evaluated technique (BASELINE, LIVE, CKPT,
CS-Defer, CTXBack, CTXBack+CS-Defer) produces one :class:`InstrPlan` per
instruction position: the dedicated preemption routine, the dedicated
resuming routine, and the static cost estimates used for ranking and for the
Fig. 7 context-size analysis.  The simulator executes these routines
verbatim (paper §IV-B: warps jump to the dedicated routine selected by their
program counter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..compiler.usedef import Value
from ..isa.instruction import Instruction, Program, inst
from ..isa.registers import Reg, RegKind


@dataclass(frozen=True)
class SavedValue:
    """One context-buffer slot: *value* saved from *source_reg* at offset
    *slot* occupying *nbytes*."""

    value: Value
    source_reg: Reg
    slot: int
    nbytes: int


@dataclass
class InstrPlan:
    """Dedicated preemption/resume routines for one signal position."""

    position: int
    mechanism: str
    preempt_routine: Program
    resume_routine: Program
    resume_pc: int
    context_bytes: int
    est_preempt_cycles: float
    est_resume_cycles: float
    saved: list[SavedValue] = field(default_factory=list)
    flashback_pos: int | None = None
    deferred_to: int | None = None
    reexec_count: int = 0

    @property
    def waste_instructions(self) -> int:
        """In-between instructions whose work is re-done on resume."""
        if self.flashback_pos is None:
            return 0
        return self.position - self.flashback_pos


# Routine instructions are interned: an Instruction is frozen, so every
# routine that saves register r at slot s can share one object.  The pass
# builds several candidate plans per position and plans repeat the same
# stores and loads, so this saves most constructions, and a prepared
# artifact pickles each shared instruction once.


@lru_cache(maxsize=None)
def ctx_store_for(reg: Reg, slot: int) -> Instruction:
    """Context-buffer store of one register (the paper's ``GST r, ctx[..]``)."""
    if reg.kind is RegKind.VECTOR:
        return inst("ctx_store_v", reg, slot)
    return inst("ctx_store_s", reg, slot)


@lru_cache(maxsize=None)
def ctx_load_for(reg: Reg, slot: int) -> Instruction:
    """Context-buffer load into one register (``GLD r, ctx[..]``)."""
    if reg.kind is RegKind.VECTOR:
        return inst("ctx_load_v", reg, slot)
    return inst("ctx_load_s", reg, slot)
