"""CTXBack+CS-Defer: per-instruction choice by estimated preemption latency
(paper §IV-C).

CS-Defer is analysed over the *same* OSRB-instrumented program so positions
align.  The choice uses the compile-time estimates; since CS-Defer's
estimate ignores dependency stalls (§V-B), the combination occasionally
picks a sub-optimal side — exactly the effect the paper reports in Fig. 8.
"""

from __future__ import annotations

from ..ctxback.flashback import CtxBackConfig
from ..isa.instruction import Kernel
from ..sim.config import GPUConfig
from .base import Mechanism, PreparedKernel
from .csdefer import CSDefer
from .ctxback import CtxBack


class Combined(Mechanism):
    """Per-instruction pick between CTXBack and CS-Defer by estimated latency."""

    name = "combined"

    def __init__(self, analysis_config: CtxBackConfig | None = None) -> None:
        self.analysis_config = analysis_config

    def prepare(
        self,
        kernel: Kernel,
        config: GPUConfig,
        ctx: PreparedKernel | None = None,
    ) -> PreparedKernel:
        """*ctx*, when given, is *kernel*'s already-prepared CTXBack side
        under this mechanism's analysis config; the engine passes its
        cached artifact so the CTXBack pass runs once per kernel."""
        if ctx is None:
            ctx = CtxBack(self.analysis_config).prepare(kernel, config)
        defer = CSDefer().prepare(ctx.kernel, config)
        plans = {}
        for n, ctx_plan in ctx.plans.items():
            defer_plan = defer.plans[n]
            plans[n] = (
                ctx_plan
                if ctx_plan.est_preempt_cycles <= defer_plan.est_preempt_cycles
                else defer_plan
            )
        return PreparedKernel(kernel=ctx.kernel, mechanism=self.name, plans=plans)
