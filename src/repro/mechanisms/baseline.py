"""BASELINE: the Linux-driver context-switch routine (paper §II-A, §V).

Swaps *every occupied on-chip resource* of the preempted warp — the full
aligned register allocation including padding and dead registers, the exec
mask and condition code, and the thread block's LDS — regardless of
liveness.  This is the normalisation reference for every figure.
"""

from __future__ import annotations

import dataclasses

from ..ctxback.context import lds_share_bytes
from ..isa.instruction import Kernel
from ..isa.registers import EXEC, SCC, sreg, vreg
from ..sim.config import GPUConfig
from .base import Mechanism, PreparedKernel
from .regsave import regsave_plan


class Baseline(Mechanism):
    """Swap the full aligned allocation, liveness-blind (Linux driver)."""

    name = "baseline"

    def prepare(self, kernel: Kernel, config: GPUConfig) -> PreparedKernel:
        spec = config.rf_spec
        regs = (
            [vreg(i) for i in range(spec.allocated_vgprs(kernel.vgprs_used))]
            + [sreg(i) for i in range(spec.allocated_sgprs(kernel.sgprs_used))]
            + [EXEC, SCC]
        )
        # the routine pair is the same at every position: build it once and
        # share its programs between the plans
        template = regsave_plan(0, self.name, regs, lds_share_bytes(kernel), spec)
        plans = {
            n: dataclasses.replace(template, position=n, resume_pc=n, saved=[])
            for n in range(len(kernel.program.instructions))
        }
        return PreparedKernel(kernel=kernel, mechanism=self.name, plans=plans)
