"""Use-define chains via copy-propagating local value numbering.

Paper §III-A identifies flashback-points with "the use-define chains analyzed
from the assembly code".  Registers are heavily reused on GPUs, so
"available" is really a property of a *value* — one particular definition —
not of a register name.  This module numbers every value produced in a
straight-line block prefix and records, per instruction, which values it
reads and writes, plus which value each write *kills*.  The CTXBack layers
(availability, reverting, OSRB) are all phrased over these values.

Copy propagation is what makes on-chip scalar register backup (paper §III-D)
fall out of the general machinery: after ``s_mov s11, s4`` both registers
hold the *same* value, so if ``s4`` is later overwritten the value survives
in ``s11`` and is directly saveable from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instruction import Imm, Instruction, Program
from ..isa.registers import Reg


@dataclass(frozen=True)
class Value:
    """One dynamic value of the region: a register definition or entry state.

    ``home`` is the register that first received the value; ``def_pos`` the
    program position of the defining instruction, or -1 for values that flow
    into the region (block-entry register state).
    """

    vid: int
    home: Reg
    def_pos: int

    @property
    def is_entry(self) -> bool:
        return self.def_pos < 0

    def __repr__(self) -> str:
        origin = "entry" if self.is_entry else f"@{self.def_pos}"
        return f"Value({self.home}:{origin}#{self.vid})"


#: register-to-register move mnemonics through which values copy-propagate.
#: Public: the plan verifier (repro.verify) interprets the same set of
#: mnemonics as exact copies, so the two must never diverge.
COPY_MNEMONICS = frozenset({"s_mov", "v_mov"})
_COPY_MNEMONICS = COPY_MNEMONICS  # backwards-compatible alias


@dataclass
class Kill:
    """Record that executing *pos* overwrote *old* in destination slot *slot*."""

    pos: int
    slot: int
    old: Value


@dataclass
class RegionValues:
    """Value numbering of the straight-line range ``[start, end)``.

    Exposes:

    * ``use_values[pos]`` — values read by the instruction (aligned with
      ``Instruction.uses()``, implicit reads included);
    * ``def_values[pos]`` — values written (aligned with ``defs()``);
    * ``pre_def_values[pos]`` — the values the destination registers held
      *before* the instruction executed (what reverting recovers);
    * ``end_state`` — register -> value at the end of the range (the physical
      register file contents when a preemption signal arrives at ``end``);
    * ``kills_of[value]`` — where a value was overwritten (used to find
      revert opportunities).
    """

    start: int
    end: int
    entry: dict[Reg, Value] = field(default_factory=dict)
    #: positions whose vector writes are read-modify-write (partial exec)
    partial_exec: frozenset[int] = frozenset()
    #: per position, the registers read — instruction uses plus, at RMW
    #: positions, the vector destinations (pre-values appended to use_values)
    effective_uses: list[tuple[Reg, ...]] = field(default_factory=list)
    use_values: list[tuple[Value, ...]] = field(default_factory=list)
    def_values: list[tuple[Value, ...]] = field(default_factory=list)
    pre_def_values: list[tuple[Value, ...]] = field(default_factory=list)
    end_state: dict[Reg, Value] = field(default_factory=dict)
    kills_of: dict[Value, list[Kill]] = field(default_factory=dict)
    _values: list[Value] = field(default_factory=list)

    def value_count(self) -> int:
        return len(self._values)

    def use_values_at(self, pos: int) -> tuple[Value, ...]:
        return self.use_values[pos - self.start]

    def effective_uses_at(self, pos: int) -> tuple[Reg, ...]:
        """Registers read at *pos*, aligned with ``use_values_at``."""
        return self.effective_uses[pos - self.start]

    def def_values_at(self, pos: int) -> tuple[Value, ...]:
        return self.def_values[pos - self.start]

    def pre_def_values_at(self, pos: int) -> tuple[Value, ...]:
        return self.pre_def_values[pos - self.start]

    def live_regs_holding(self, value: Value) -> list[Reg]:
        """Registers that hold *value* in the end state (may be several)."""
        return [reg for reg, v in self.end_state.items() if v is value]


def number_region(
    program: Program,
    start: int,
    end: int,
    entry_regs=None,
    partial_exec: frozenset[int] = frozenset(),
) -> RegionValues:
    """Run local value numbering over ``program[start:end)``.

    ``entry_regs`` optionally seeds which registers get entry values;
    by default every register read before being written gets one, as do the
    registers named in the seed (useful to give live-in registers identities
    even if first access in the range is a write).

    At *partial_exec* positions (see :mod:`repro.compiler.execmask`) a
    vector write merges with the old register contents, so the destination's
    pre-value is appended to the instruction's use values: re-executing such
    an instruction requires the old value to be back in the register.
    """
    region = RegionValues(start=start, end=end, partial_exec=partial_exec)
    next_vid = 0

    def fresh(home: Reg, def_pos: int) -> Value:
        nonlocal next_vid
        value = Value(next_vid, home, def_pos)
        next_vid += 1
        region._values.append(value)
        return value

    state: dict[Reg, Value] = {}

    def value_of(reg: Reg) -> Value:
        value = state.get(reg)
        if value is None:
            value = fresh(reg, -1)
            state[reg] = value
            region.entry[reg] = value
        return value

    # number entry values in register order, never in set order, so value
    # ids (and the pickled bytes of every plan) are the same in any process
    for reg in sorted(entry_regs or ()):
        value_of(reg)

    for pos in range(start, end):
        instruction: Instruction = program.instructions[pos]
        use_regs = list(instruction.uses())
        if pos in partial_exec:
            from ..isa.registers import RegKind

            use_regs.extend(
                d for d in instruction.defs() if d.kind is RegKind.VECTOR
            )
        region.effective_uses.append(tuple(use_regs))
        uses = tuple(value_of(reg) for reg in use_regs)
        region.use_values.append(uses)

        defs = instruction.defs()
        pre = tuple(value_of(reg) for reg in defs)
        region.pre_def_values.append(pre)

        new_values: list[Value] = []
        # a masked v_mov merges with the inactive lanes: it is NOT a copy,
        # so the destination must get a fresh value identity
        copied = (
            None
            if pos in partial_exec
            else _copy_source_value(instruction, state, value_of)
        )
        for slot, reg in enumerate(defs):
            old = pre[slot]
            if copied is not None and slot == 0:
                new = copied
            else:
                new = fresh(reg, pos)
            if old is not new:
                region.kills_of.setdefault(old, []).append(Kill(pos, slot, old))
            state[reg] = new
            new_values.append(new)
        region.def_values.append(tuple(new_values))

    region.end_state = dict(state)
    return region


def _copy_source_value(instruction: Instruction, state, value_of):
    """For register-to-register moves, return the propagated source value."""
    if instruction.mnemonic not in _COPY_MNEMONICS:
        return None
    src = instruction.srcs[0]
    if isinstance(src, Imm):
        return None
    if isinstance(src, Reg):
        return value_of(src)
    return None
