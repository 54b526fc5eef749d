"""Routine generation: structure, symbolic validation, degrade path."""

import pytest

from repro.compiler import analyze_liveness, build_cfg, number_region
from repro.ctxback import (
    CtxBackConfig,
    FlashbackAnalyzer,
    GenerationFailure,
    Resolver,
    SignalSite,
    generate_routines,
)
from repro.ctxback.plan import ctx_load_for, ctx_store_for
from repro.ctxback.routines import _mov_for
from repro.isa import Kernel, RegisterFileSpec, ReversibilityModel, parse, sreg, vreg

SPEC = RegisterFileSpec(warp_size=4)
CONFIG = CtxBackConfig(rf_spec=SPEC)


def build_site(kernel, n):
    program = kernel.program
    cfg = build_cfg(program)
    liveness = analyze_liveness(program, cfg)
    block = cfg.block_at(n)
    region = number_region(
        program, block.start, block.end, entry_regs=liveness.live_in[block.start]
    )
    state = dict(region.entry)
    for pos in range(block.start, n):
        for reg, value in zip(
            program.instructions[pos].defs(), region.def_values_at(pos)
        ):
            state[reg] = value
    site = SignalSite(
        program=program,
        region=region,
        n=n,
        end_state=state,
        rf_spec=SPEC,
        model=ReversibilityModel.PAPER,
    )
    return site, liveness


def generate_for(kernel, n, p):
    site, liveness = build_site(kernel, n)
    resolver = Resolver(site, p)
    live = sorted(liveness.live_in[n], key=str)
    roots = {}
    for reg in live:
        node = resolver.resolve(site.end_state[reg])
        assert node is not None
        roots[reg] = node
    return generate_routines(site, p, roots, live, lds_bytes=0)


class TestGeneratedStructure:
    def test_stores_precede_reverts_precede_recovered_stores(self, fig3_kernel):
        generated = generate_for(fig3_kernel, 4, 0)
        mnemonics = [i.mnemonic for i in generated.preempt.instructions]
        revert_at = mnemonics.index("v_sub")
        # the recovered register's store comes after the revert
        assert any(m.startswith("ctx_store") for m in mnemonics[revert_at + 1:])
        # and every pre-revert instruction is a plain store
        assert all(m.startswith("ctx_store") for m in mnemonics[:revert_at])

    def test_saved_bytes_match_stores(self, fig3_kernel):
        generated = generate_for(fig3_kernel, 4, 0)
        assert generated.saved_bytes == sum(s.nbytes for s in generated.saved)
        stores = [
            i
            for i in generated.preempt.instructions
            if i.mnemonic.startswith("ctx_store")
        ]
        assert len(stores) == len(generated.saved)

    def test_resume_loads_reference_saved_slots(self, fig3_kernel):
        generated = generate_for(fig3_kernel, 4, 0)
        slots = {s.slot for s in generated.saved}
        for instruction in generated.resume.instructions:
            if instruction.mnemonic.startswith("ctx_load"):
                assert instruction.srcs[-1].value in slots

    def test_reexec_positions_within_region(self, fig6_kernel):
        generated = generate_for(fig6_kernel, 5, 0)
        assert all(0 <= pos < 5 for pos in generated.reexec_positions)

    def test_lds_swap_emitted_when_requested(self, fig3_kernel):
        site, liveness = build_site(fig3_kernel, 4)
        resolver = Resolver(site, 0)
        live = sorted(liveness.live_in[4], key=str)
        roots = {reg: resolver.resolve(site.end_state[reg]) for reg in live}
        generated = generate_routines(site, 0, roots, live, 128)
        assert generated.preempt.instructions[-1].mnemonic == "ctx_store_lds"
        assert generated.resume.instructions[0].mnemonic == "ctx_load_lds"

    def test_stores_never_reexecuted(self, loop_kernel):
        analyzer = FlashbackAnalyzer(loop_kernel, CONFIG)
        for n in range(len(loop_kernel.program.instructions)):
            plan = analyzer.plan_at(n)
            for instruction in plan.resume_routine.instructions:
                assert instruction.mnemonic != "global_store"


class TestDegradePath:
    def test_forced_direct_produces_plan(self, fig6_kernel):
        """Pinning every value to direct save must still generate: this is
        the LIVE-equivalent fallback the analyzer relies on."""
        site, liveness = build_site(fig6_kernel, 5)
        live = sorted(liveness.live_in[5], key=str)
        all_vids = frozenset(
            site.end_state[reg].vid for reg in live
        )
        resolver = Resolver(site, 5, forced_direct=all_vids)
        roots = {}
        for reg in live:
            node = resolver.resolve(site.end_state[reg])
            assert node is not None
            roots[reg] = node
        generated = generate_routines(site, 5, roots, live, 0)
        assert generated.reexec_positions == []

    def test_generation_failure_carries_value(self):
        with pytest.raises(GenerationFailure) as excinfo:
            raise GenerationFailure.__new__(GenerationFailure) if False else (
                _ for _ in ()
            ).throw(
                GenerationFailure(
                    __import__(
                        "repro.compiler.usedef", fromlist=["Value"]
                    ).Value(1, None, -1),
                    "test",
                )
            )
        assert "test" in str(excinfo.value)


class TestPlanExecutability:
    """Every routine the analyzer emits must assemble-roundtrip and contain
    only non-branch instructions the simulator can execute."""

    @pytest.mark.parametrize("position", [0, 2, 4, 6, 8, 10, 12])
    def test_loop_kernel_routines_wellformed(self, loop_kernel, position):
        from repro.isa import parse as parse_asm, serialize

        analyzer = FlashbackAnalyzer(loop_kernel, CONFIG)
        plan = analyzer.plan_at(position)
        for routine in (plan.preempt_routine, plan.resume_routine):
            routine.validate()
            text = serialize(routine)
            assert parse_asm(text).instructions == routine.instructions


class TestInterning:
    """Routine instructions are frozen, so equal ones are shared objects."""

    def test_context_buffer_instructions_are_interned(self):
        assert ctx_store_for(vreg(3), 256) is ctx_store_for(vreg(3), 256)
        assert ctx_load_for(sreg(2), 8) is ctx_load_for(sreg(2), 8)
        assert ctx_store_for(vreg(3), 256) is not ctx_store_for(vreg(3), 512)
        assert ctx_store_for(sreg(2), 8) is not ctx_load_for(sreg(2), 8)

    def test_moves_are_interned(self):
        assert _mov_for(vreg(1), vreg(2)) is _mov_for(vreg(1), vreg(2))
        assert _mov_for(sreg(1), sreg(2)) is _mov_for(sreg(1), sreg(2))
        with pytest.raises(ValueError):
            _mov_for(sreg(1), vreg(2))
