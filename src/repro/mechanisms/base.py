"""Common interface of the six evaluated preemption mechanisms.

Each mechanism's compiler side turns a kernel into a :class:`PreparedKernel`:
a (possibly instrumented) program plus one :class:`~repro.ctxback.plan.InstrPlan`
per instruction position.  The simulator's preemption controller consumes
prepared kernels uniformly; only CKPT is flagged checkpoint-based because its
preempt/resume flow (drop + replay from snapshot) does not fit the
routine-pair model.
"""

from __future__ import annotations

import statistics
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from ..ctxback.plan import InstrPlan
from ..isa.instruction import Kernel
from ..isa.opcodes import MemKind, opspec
from ..isa.registers import Reg
from ..sim.config import GPUConfig


def classify_routine_step(where: str, mnemonic: str) -> str:
    """Attribute one dedicated-routine instruction to its §III technique.

    *where* is ``"preempt"`` or ``"resume"`` (the warp mode during the
    routine).  Context-buffer stores are ``save`` steps, context-buffer
    loads ``reload`` steps; everything else a preemption routine executes
    is a ``revert`` step (inverse operations rebuilding the flashback
    state, §III-C) and everything else a resuming routine executes is a
    ``rebuild`` step (re-computing values — including OSRB-backed scalar
    restores — on the way back to the resume PC, §III-B/D).  Used by the
    trace exporters to label per-issue events; never on the sim hot path.
    """
    try:
        mem = opspec(mnemonic).mem
    except KeyError:
        mem = None
    if mem is MemKind.CTX_STORE:
        return "save"
    if mem is MemKind.CTX_LOAD:
        return "reload"
    return "revert" if where == "preempt" else "rebuild"


@dataclass(frozen=True)
class CkptSite:
    """One CKPT probe: where it sits and what a checkpoint there costs."""

    probe_id: int
    position: int  # probe position in the *instrumented* program
    live_regs: frozenset[Reg]
    nbytes: int
    store_ops: int


@dataclass
class PreparedKernel:
    """A kernel ready for preemptible execution under one mechanism."""

    kernel: Kernel
    mechanism: str
    plans: dict[int, InstrPlan] = field(default_factory=dict)
    ckpt_sites: dict[int, CkptSite] = field(default_factory=dict)
    is_checkpoint_based: bool = False
    #: SM-draining: the signal only starts the clock; warps run to completion
    is_drain: bool = False
    #: Chimera-style runtime selection: warp -> "switch" | "drop" | "drain";
    #: None means the mechanism's static flags decide
    runtime_policy: Callable | None = None

    def strategy_for(self, warp) -> str:
        """How to preempt *warp* right now: "switch" (run the dedicated
        routine), "drop" (checkpoint-based eviction), or "drain"."""
        if self.runtime_policy is not None:
            return self.runtime_policy(warp)
        if self.is_drain:
            return "drain"
        if self.is_checkpoint_based:
            return "drop"
        return "switch"

    def iter_routines(self, unique: bool = True):
        """Yield ``(position, where, routine)`` for every plan routine.

        ``where`` is ``"preempt"`` or ``"resume"``.  Plans may share routine
        ``Program`` objects (BASELINE's template, CTXBack after
        ``share_routines``); with ``unique`` each shared object is yielded
        once, at its lowest position — what auditing passes want.
        """
        seen: set[int] = set()
        for position in sorted(self.plans):
            plan = self.plans[position]
            for where, routine in (
                ("preempt", plan.preempt_routine),
                ("resume", plan.resume_routine),
            ):
                if unique:
                    if id(routine) in seen:
                        continue
                    seen.add(id(routine))
                yield position, where, routine

    # -- static context statistics (Fig. 7) ------------------------------------

    def context_bytes_by_position(self) -> list[int]:
        if self.is_checkpoint_based:
            # every position restores from the (single per-block) checkpoint
            if not self.ckpt_sites:
                return []
            by_block = {site.nbytes for site in self.ckpt_sites.values()}
            size = statistics.mean(by_block)
            return [int(size)] * len(self.kernel.program.instructions)
        return [
            self.plans[n].context_bytes
            for n in sorted(self.plans)
        ]

    def mean_context_bytes(self) -> float:
        sizes = self.context_bytes_by_position()
        return statistics.mean(sizes) if sizes else 0.0


class Mechanism(ABC):
    """Compiler side of one preemption technique."""

    name: str

    @abstractmethod
    def prepare(self, kernel: Kernel, config: GPUConfig) -> PreparedKernel:
        """Analyze/instrument *kernel* and emit per-position plans."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Mechanism {self.name}>"
