"""Value numbering: entry values, kills, copy propagation."""

from repro.compiler import number_region
from repro.isa import parse, sreg, vreg


def region_of(src, start=None, end=None, entry=()):
    program = parse(src)
    return program, number_region(
        program, start or 0, end if end is not None else len(program), entry
    )


class TestBasics:
    def test_entry_values_created_on_first_read(self):
        _, region = region_of("v_add v1, v2, v3\ns_endpgm")
        assert vreg(2) in region.entry and vreg(3) in region.entry
        assert region.entry[vreg(2)].is_entry

    def test_defs_create_fresh_values(self):
        _, region = region_of("v_mov v1, 1\nv_mov v1, 2\ns_endpgm")
        first = region.def_values_at(0)[0]
        second = region.def_values_at(1)[0]
        assert first.vid != second.vid
        assert first.def_pos == 0 and second.def_pos == 1

    def test_use_values_track_last_def(self):
        _, region = region_of(
            "v_mov v1, 1\nv_add v2, v1, v1\nv_mov v1, 3\nv_add v3, v1, v1\ns_endpgm"
        )
        v1_first = region.def_values_at(0)[0]
        v1_second = region.def_values_at(2)[0]
        assert region.use_values_at(1)[0] is v1_first
        assert region.use_values_at(3)[0] is v1_second

    def test_end_state_holds_last_values(self):
        _, region = region_of("v_mov v1, 1\nv_mov v1, 2\ns_endpgm")
        assert region.end_state[vreg(1)] is region.def_values_at(1)[0]

    def test_entry_seed_registers(self):
        _, region = region_of("s_endpgm", entry=[vreg(9)])
        assert vreg(9) in region.entry

    def test_entry_values_numbered_in_register_order(self):
        """Seeded entry values get ids in register order, whatever order
        the seed set iterates in, so ids agree between processes."""
        regs = [vreg(3), sreg(12), vreg(0), sreg(2)]
        for entry in (regs, regs[::-1], frozenset(regs)):
            _, region = region_of("s_endpgm", entry=entry)
            by_vid = sorted(region.entry, key=lambda reg: region.entry[reg].vid)
            assert by_vid == sorted(regs)


class TestKills:
    def test_kill_recorded_with_position_and_slot(self):
        _, region = region_of("v_mov v1, 1\nv_mov v1, 2\ns_endpgm")
        first = region.def_values_at(0)[0]
        kills = region.kills_of[first]
        assert len(kills) == 1
        assert kills[0].pos == 1 and kills[0].slot == 0

    def test_entry_value_kill(self):
        _, region = region_of("v_add v1, v1, v2\ns_endpgm")
        entry = region.entry[vreg(1)]
        assert region.kills_of[entry][0].pos == 0

    def test_unkilled_value_has_no_entry(self):
        _, region = region_of("v_mov v1, 1\ns_endpgm")
        value = region.def_values_at(0)[0]
        assert value not in region.kills_of

    def test_pre_def_values(self):
        _, region = region_of("v_mov v1, 1\nv_mov v1, 2\ns_endpgm")
        assert region.pre_def_values_at(1)[0] is region.def_values_at(0)[0]


class TestCopyPropagation:
    def test_mov_propagates_value_identity(self):
        _, region = region_of("v_mov v1, v2\ns_endpgm")
        assert region.def_values_at(0)[0] is region.entry[vreg(2)]

    def test_value_live_in_two_registers(self):
        _, region = region_of("v_mov v1, v2\ns_endpgm")
        value = region.entry[vreg(2)]
        holders = region.live_regs_holding(value)
        assert set(holders) == {vreg(1), vreg(2)}

    def test_scalar_backup_pattern(self):
        # OSRB's insight: after s_mov s9, s4, the old s4 value survives in s9
        _, region = region_of("s_mov s9, s4\ns_add s4, s4, 1\ns_endpgm")
        old = region.entry[sreg(4)]
        assert region.end_state[sreg(9)] is old
        assert region.end_state[sreg(4)] is not old

    def test_imm_mov_is_not_a_copy(self):
        _, region = region_of("v_mov v1, 5\ns_endpgm")
        assert not region.def_values_at(0)[0].is_entry

    def test_cross_kind_copy_propagates(self):
        # broadcast of a scalar into a vector register keeps the value id
        _, region = region_of("v_mov v1, s2\ns_endpgm")
        assert region.def_values_at(0)[0] is region.entry[sreg(2)]


class TestSubRanges:
    def test_region_respects_bounds(self):
        program = parse("v_mov v1, 1\nv_mov v1, 2\nv_mov v1, 3\ns_endpgm")
        region = number_region(program, 1, 3)
        assert region.start == 1 and region.end == 3
        assert len(region.def_values) == 2
        assert region.def_values_at(1)[0].def_pos == 1
