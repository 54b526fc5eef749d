"""Flashback-point search and per-instruction plan construction.

For every signal position ``n``, CTXBack enumerates flashback candidates
within the basic block ∩ idempotent region, ranks them by estimated
preemption latency — dominated by context bytes, so the screen uses live-in
context sizes, matching the paper's observation that selected
flashback-points sit at local context-size minima (§IV-A) — exactly builds
the top-K plans, and keeps the cheapest one that generates valid routines.

``p = n`` is always a candidate and always schedulable (save the live
context of ``n`` directly), so CTXBack "decays to LIVE when dealing with
kernels without a significant variety of live registers" (§V-C) by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..compiler.cfg import CFG, BasicBlock, build_cfg
from ..compiler.execmask import partial_exec_positions
from ..compiler.idempotence import AliasModel, idempotent_region_start
from ..compiler.liveness import LivenessInfo, analyze_liveness
from ..compiler.usedef import RegionValues, Value, number_region
from ..isa.instruction import Kernel, Program
from ..isa.opcodes import ReversibilityModel
from ..isa.registers import Reg, RegisterFileSpec
from .context import META_BYTES, lds_share_bytes, regs_bytes
from .costs import EST_STORE_BYTES_PER_CYCLE, est_issue_cycles, est_preempt_latency
from .plan import InstrPlan
from .routines import GeneratedRoutines, GenerationFailure, generate_routines
from .valueflow import Node, Resolver, SignalSite


@dataclass(frozen=True)
class CtxBackConfig:
    """Tunables of the CTXBack compiler pass.

    The three technique toggles exist for the ablation study (DESIGN.md §5):
    with all three off, the pass degrades to choosing among strictly-available
    preceding contexts, i.e. the paper's unrelaxed Fig. 1 condition.
    """

    rf_spec: RegisterFileSpec = field(default_factory=RegisterFileSpec)
    reversibility: ReversibilityModel = ReversibilityModel.PAPER
    #: number of screened candidates built exactly per signal position
    candidates_k: int = 4
    #: retry budget when routine generation pins values to direct-save
    max_degrade_retries: int = 8
    #: technique toggles (paper §III-B/C/D)
    enable_relaxed: bool = True
    enable_reverting: bool = True
    enable_osrb: bool = True


@dataclass
class BlockState:
    """Value numbering of one basic block plus the per-position register map.

    Shared between the flashback analyzer and the symbolic plan verifier
    (:mod:`repro.verify`), which re-derives the signal-time register file
    from the same numbering the plans were built from.
    """

    block: BasicBlock
    region: RegionValues
    #: state_at[i] = register file contents before executing block.start + i
    state_at: list[dict[Reg, Value]]


def build_block_state(
    program: Program, block: BasicBlock, liveness, partial_exec: frozenset[int]
) -> BlockState:
    entry_regs = liveness.live_in[block.start] if len(block) else ()
    region = number_region(
        program, block.start, block.end, entry_regs=entry_regs,
        partial_exec=partial_exec,
    )
    states: list[dict[Reg, Value]] = []
    state = dict(region.entry)
    for pos in block.positions():
        states.append(dict(state))
        instruction = program.instructions[pos]
        for reg, value in zip(instruction.defs(), region.def_values_at(pos)):
            state[reg] = value
    states.append(dict(state))
    return BlockState(block, region, states)


class FlashbackAnalyzer:
    """Builds CTXBack :class:`InstrPlan`\\ s for every position of a kernel."""

    def __init__(self, kernel: Kernel, config: CtxBackConfig | None = None) -> None:
        self.kernel = kernel
        self.config = config or CtxBackConfig()
        self.program = kernel.program
        self.cfg: CFG = build_cfg(self.program)
        self.partial_exec = partial_exec_positions(self.program, self.cfg)
        self.liveness: LivenessInfo = analyze_liveness(
            self.program, self.cfg, self.partial_exec
        )
        self.alias_model = (
            AliasModel.NO_ALIAS if kernel.noalias else AliasModel.MAY_ALIAS
        )
        self._block_states: dict[int, BlockState] = {}
        self._last_site: tuple[SignalSite, tuple[Reg, ...]] | None = None
        self._lds_share = lds_share_bytes(kernel)
        spec = self.config.rf_spec
        self._live_bytes = [
            regs_bytes(self.liveness.live_in[pos], spec)
            for pos in range(len(self.program.instructions))
        ]
        self._reverting_enabled = self.config.enable_reverting

    # -- helpers ---------------------------------------------------------------

    def _block_state(self, block: BasicBlock) -> BlockState:
        state = self._block_states.get(block.index)
        if state is None:
            state = build_block_state(
                self.program, block, self.liveness, self.partial_exec
            )
            self._block_states[block.index] = state
        return state

    def _site(self, n: int) -> tuple[SignalSite, tuple[Reg, ...]]:
        """The signal site at *n* and its live registers in name order, the
        order roots are resolved and materialised in.

        plan_at builds every candidate of one position in a row: a
        one-entry memo lets them share both.
        """
        memo = self._last_site
        if memo is not None and memo[0].n == n:
            return memo
        block = self.cfg.block_at(n)
        bstate = self._block_state(block)
        site = SignalSite(
            program=self.program,
            region=bstate.region,
            n=n,
            end_state=bstate.state_at[n - block.start],
            rf_spec=self.config.rf_spec,
            model=(
                self.config.reversibility
                if self._reverting_enabled
                else _NO_REVERTS
            ),
        )
        live = tuple(sorted(self.liveness.live_in[n], key=str))
        memo = self._last_site = (site, live)
        return memo

    def candidate_positions(self, n: int) -> list[int]:
        """Screened flashback candidates for a signal at *n*, best first."""
        block = self.cfg.block_at(n)
        region_start = idempotent_region_start(
            self.program, block.start, n, self.alias_model
        )
        if not self.config.enable_relaxed:
            # Without the relaxed condition (§III-B) a preceding instruction
            # qualifies only if *none* of its live-in registers have been
            # overwritten (Fig. 1); restrict candidates accordingly.
            region_start = self._strict_region_start(n, region_start)
        candidates = sorted(
            range(region_start, n + 1),
            key=lambda q: (self._live_bytes[q] if q < n else self._live_bytes[n], -q),
        )
        top = candidates[: self.config.candidates_k]
        if n not in top:
            top.append(n)
        return top

    def _strict_region_start(self, n: int, region_start: int) -> int:
        """Earliest p whose whole live-in context is still unoverwritten."""
        block = self.cfg.block_at(n)
        bstate = self._block_state(block)
        end_state = bstate.state_at[n - block.start]
        current = {value.vid for value in end_state.values()}
        for p in range(n, region_start - 1, -1):
            state = bstate.state_at[p - block.start]
            live = self.liveness.live_in[p] if p < n else self.liveness.live_in[n]
            ok = all(
                reg in state and state[reg].vid in current for reg in live
            )
            if not ok:
                return p + 1
        return region_start

    # -- plan construction -------------------------------------------------------

    def build_plan_at(self, n: int, p: int) -> InstrPlan | None:
        """Exactly build the plan for flashback point *p*; None if infeasible."""
        site, live = self._site(n)
        forced: frozenset[int] = frozenset()
        for _attempt in range(self.config.max_degrade_retries + 1):
            resolver = Resolver(site, p, forced)
            roots: dict[Reg, Node] = {}
            feasible = True
            for reg in live:
                target = site.end_state.get(reg)
                if target is None:
                    feasible = False
                    break
                node = resolver.resolve(target)
                if node is None:
                    feasible = False
                    break
                roots[reg] = node
            if not feasible:
                return None
            try:
                generated = generate_routines(site, p, roots, live, self._lds_share)
            except GenerationFailure as failure:
                if failure.value.vid in forced or failure.value.vid < 0:
                    return None
                forced = forced | {failure.value.vid}
                continue
            return self._plan_from(n, p, generated)
        return None

    def _plan_from(self, n: int, p: int, generated: GeneratedRoutines) -> InstrPlan:
        context_bytes = generated.saved_bytes + self._lds_share + META_BYTES
        preempt_alu = sum(
            est_issue_cycles(instruction)
            for instruction in generated.preempt.instructions
            if not instruction.spec.touches_global_memory
        )
        est_resume = (
            context_bytes / EST_STORE_BYTES_PER_CYCLE
            + sum(
                est_issue_cycles(instruction)
                for instruction in generated.resume.instructions
                if not instruction.spec.touches_global_memory
            )
        )
        return InstrPlan(
            position=n,
            mechanism="ctxback",
            preempt_routine=generated.preempt,
            resume_routine=generated.resume,
            resume_pc=n,
            context_bytes=context_bytes,
            est_preempt_cycles=est_preempt_latency(context_bytes, preempt_alu),
            est_resume_cycles=est_resume,
            saved=generated.saved,
            flashback_pos=p,
            reexec_count=len(generated.reexec_positions),
        )

    def plan_at(self, n: int) -> InstrPlan:
        """Best CTXBack plan for a signal arriving at position *n*."""
        best: InstrPlan | None = None
        for p in self.candidate_positions(n):
            plan = self.build_plan_at(n, p)
            if plan is None:
                continue
            if best is None or (plan.context_bytes, plan.est_resume_cycles) < (
                best.context_bytes,
                best.est_resume_cycles,
            ):
                best = plan
        if best is None:  # pragma: no cover - p = n always succeeds
            raise RuntimeError(f"no feasible plan at position {n}")
        return best

    def plan_all(self) -> dict[int, InstrPlan]:
        """Plans for every instruction position of the kernel."""
        return {
            n: self.plan_at(n) for n in range(len(self.program.instructions))
        }


class _NoReverts:
    """Reversibility model admitting nothing (for the ablation toggle)."""

    def allows(self, spec) -> bool:
        return False


_NO_REVERTS = _NoReverts()
