"""Register model: naming, interning, context bytes, allocation alignment."""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import (
    EXEC,
    PC,
    SCC,
    Reg,
    RegisterFileSpec,
    RegKind,
    is_reg_name,
    parse_reg,
    sreg,
    vreg,
)


class TestReg:
    def test_scalar_str(self):
        assert str(sreg(3)) == "s3"

    def test_vector_str(self):
        assert str(vreg(17)) == "v17"

    def test_special_names(self):
        assert str(EXEC) == "exec"
        assert str(SCC) == "scc"
        assert str(PC) == "pc"

    def test_interning(self):
        assert sreg(5) is sreg(5)
        assert vreg(5) is vreg(5)
        assert sreg(5) is not vreg(5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Reg(RegKind.SCALAR, -1)

    def test_kind_predicates(self):
        assert sreg(0).is_scalar and not sreg(0).is_vector
        assert vreg(0).is_vector and not vreg(0).is_scalar
        assert EXEC.is_special

    def test_hash_is_the_same_in_every_process(self):
        """The hash (and with it the iteration order of register sets) is
        computed from (kind, index), never from a per-process string hash."""
        script = (
            "from repro.isa import EXEC, PC, SCC, sreg, vreg\n"
            "regs = [sreg(0), sreg(17), vreg(0), vreg(5), vreg(130), EXEC, SCC, PC]\n"
            "print([hash(r) for r in regs], [str(r) for r in set(regs)])\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(outputs) == 1

    def test_equal_registers_hash_equal(self):
        assert hash(Reg(RegKind.VECTOR, 7)) == hash(vreg(7))
        clone = pickle.loads(pickle.dumps(sreg(4)))
        assert clone == sreg(4) and hash(clone) == hash(sreg(4))
        assert len({sreg(1), vreg(1), Reg(RegKind.SPECIAL, 1)}) == 3

    def test_ordering_is_total(self):
        regs = [vreg(2), sreg(9), vreg(0), EXEC]
        assert sorted(regs) == sorted(regs, key=lambda r: (r.kind.value, r.index))


class TestContextBytes:
    def test_vector_scales_with_warp(self):
        assert vreg(0).context_bytes(64) == 256
        assert vreg(0).context_bytes(4) == 16

    def test_scalar_is_four_bytes(self):
        assert sreg(0).context_bytes(64) == 4

    def test_exec_is_eight_bytes(self):
        assert EXEC.context_bytes(64) == 8

    def test_scc_is_four_bytes(self):
        assert SCC.context_bytes(64) == 4


class TestParseReg:
    @pytest.mark.parametrize(
        "text,expected",
        [("v0", vreg(0)), ("s12", sreg(12)), ("V3", vreg(3)), ("exec", EXEC), ("scc", SCC)],
    )
    def test_parse(self, text, expected):
        assert parse_reg(text) == expected

    @pytest.mark.parametrize("text", ["x1", "v", "s-1", "vv1", "", "v1x"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_reg(text)

    def test_is_reg_name(self):
        assert is_reg_name("v7") and not is_reg_name("LOOP")

    @given(st.integers(min_value=0, max_value=1000))
    def test_roundtrip_vector(self, index):
        assert parse_reg(str(vreg(index))) == vreg(index)

    @given(st.integers(min_value=0, max_value=1000))
    def test_roundtrip_scalar(self, index):
        assert parse_reg(str(sreg(index))) == sreg(index)


class TestRegisterFileSpec:
    def test_vega_defaults(self):
        spec = RegisterFileSpec()
        assert spec.warp_size == 64
        assert spec.vgpr_bytes_per_sm == 256 * 1024
        assert spec.lds_bytes_per_sm == 64 * 1024

    def test_vgpr_alignment_groups_of_four(self):
        spec = RegisterFileSpec()
        assert spec.allocated_vgprs(1) == 4
        assert spec.allocated_vgprs(4) == 4
        assert spec.allocated_vgprs(5) == 8
        assert spec.allocated_vgprs(0) == 0

    def test_sgpr_alignment_groups_of_sixteen(self):
        spec = RegisterFileSpec()
        assert spec.allocated_sgprs(1) == 16
        assert spec.allocated_sgprs(16) == 16
        assert spec.allocated_sgprs(17) == 32

    def test_negative_usage_rejected(self):
        spec = RegisterFileSpec()
        with pytest.raises(ValueError):
            spec.allocated_vgprs(-1)
        with pytest.raises(ValueError):
            spec.allocated_sgprs(-2)

    def test_warp_context_includes_padding(self):
        spec = RegisterFileSpec(warp_size=64)
        # 5 vgprs used -> 8 allocated; 1 sgpr used -> 16 allocated
        expected = 8 * 256 + 16 * 4
        assert spec.warp_context_bytes(5, 1) == expected

    def test_warp_context_includes_lds(self):
        spec = RegisterFileSpec(warp_size=64)
        assert (
            spec.warp_context_bytes(4, 16, lds_bytes=512)
            - spec.warp_context_bytes(4, 16)
            == 512
        )

    def test_live_context_bytes(self):
        spec = RegisterFileSpec(warp_size=4)
        regs = [vreg(0), sreg(1), EXEC]
        assert spec.live_context_bytes(regs) == 16 + 4 + 8

    def test_zero_warp_size_rejected(self):
        with pytest.raises(ValueError):
            RegisterFileSpec(warp_size=0)

    @given(st.integers(min_value=0, max_value=512))
    def test_allocation_monotone_and_covering(self, used):
        spec = RegisterFileSpec()
        allocated = spec.allocated_vgprs(used)
        assert allocated >= used
        assert allocated % spec.vgpr_align == 0
        assert allocated - used < spec.vgpr_align
