"""Instructions, programs and kernels for the synthetic SIMT ISA."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .opcodes import MemKind, OpClass, OpSpec, opspec
from .registers import EXEC, SCC, Reg


@dataclass(frozen=True)
class Imm:
    """Immediate operand, canonicalized to its 32-bit wrapped value so that
    ``Imm(-1) == Imm(0xFFFFFFFF)`` and assembly round-trips exactly."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value & 0xFFFFFFFF)

    def __str__(self) -> str:
        v = self.value
        return hex(v) if v > 9 else str(v)

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True)
class Label:
    """Branch-target operand."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return str(self)


Operand = Union[Reg, Imm, Label]


def _as_operand(value) -> Operand:
    if isinstance(value, (Reg, Imm, Label)):
        return value
    if isinstance(value, int):
        return Imm(value)
    if isinstance(value, str):
        return Label(value)
    raise TypeError(f"cannot convert {value!r} to an operand")


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``dsts`` are always registers; ``srcs`` may be registers, immediates or
    (for branches) labels.  ``uses``/``defs`` expose the *full* register
    effect including implicit architectural state, which is what liveness,
    use-def and all CTXBack analyses consume.
    """

    mnemonic: str
    dsts: tuple[Reg, ...] = ()
    srcs: tuple[Operand, ...] = ()

    def __post_init__(self) -> None:
        spec = opspec(self.mnemonic)  # validates the mnemonic
        if len(self.dsts) != spec.n_dst:
            raise ValueError(
                f"{self.mnemonic}: expected {spec.n_dst} dsts, got {len(self.dsts)}"
            )
        if len(self.srcs) != spec.n_src:
            raise ValueError(
                f"{self.mnemonic}: expected {spec.n_src} srcs, got {len(self.srcs)}"
            )
        for dst in self.dsts:
            if not isinstance(dst, Reg):
                raise TypeError(f"{self.mnemonic}: dst must be a register")

    @property
    def spec(self) -> OpSpec:
        return opspec(self.mnemonic)

    @property
    def src_regs(self) -> tuple[Reg, ...]:
        return tuple(s for s in self.srcs if isinstance(s, Reg))

    def uses(self) -> tuple[Reg, ...]:
        """Registers read, including implicit exec/scc reads."""
        spec = self.spec
        regs = list(self.src_regs)
        if spec.reads_exec:
            regs.append(EXEC)
        if spec.reads_scc:
            regs.append(SCC)
        return tuple(regs)

    def defs(self) -> tuple[Reg, ...]:
        """Registers written, including implicit scc writes."""
        spec = self.spec
        regs = list(self.dsts)
        if spec.writes_scc:
            regs.append(SCC)
        return tuple(regs)

    @property
    def branch_target(self) -> str | None:
        for s in self.srcs:
            if isinstance(s, Label):
                return s.name
        return None

    def __str__(self) -> str:
        parts = [str(d) for d in self.dsts] + [str(s) for s in self.srcs]
        if parts:
            return f"{self.mnemonic} {', '.join(parts)}"
        return self.mnemonic

    def __repr__(self) -> str:
        return f"<{self}>"


def inst(mnemonic: str, *operands) -> Instruction:
    """Convenience constructor splitting operands into dsts/srcs by arity.

    ``inst("v_add", v1, v2, 3)`` builds ``v_add v1, v2, 0x3``; integers and
    strings are promoted to immediates and labels respectively.
    """
    spec = opspec(mnemonic)
    ops = [_as_operand(o) for o in operands]
    if len(ops) != spec.n_dst + spec.n_src:
        raise ValueError(
            f"{mnemonic}: expected {spec.n_dst + spec.n_src} operands, got {len(ops)}"
        )
    dsts = tuple(ops[: spec.n_dst])
    srcs = tuple(ops[spec.n_dst :])
    return Instruction(mnemonic, dsts, srcs)  # type: ignore[arg-type]


#: per-instance memo attributes the simulator hangs on a :class:`Program`:
#: issue tables (:func:`repro.sim.tables.tables_for`) and the fast core's
#: compiled plan (:func:`repro.sim.blocks.plan_for`).  They hold callables,
#: so pickling drops every name listed here.
SIM_TABLES_MEMO = "_sim_tables"
FAST_PLAN_MEMO = "_fast_plan"
SIM_MEMOS = (SIM_TABLES_MEMO, FAST_PLAN_MEMO)


@dataclass
class Program:
    """A flat instruction sequence with labels.

    Labels map a name to the index of the instruction they precede; a label
    at ``len(instructions)`` marks the end of the program.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def add_label(self, name: str, index: int | None = None) -> None:
        if name in self.labels:
            raise ValueError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions) if index is None else index

    def target_index(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise KeyError(f"undefined label {name!r}") from None

    def labels_at(self, index: int) -> list[str]:
        return sorted(name for name, idx in self.labels.items() if idx == index)

    def validate(self) -> None:
        """Check label integrity and operand arity; raises on problems."""
        for name, idx in self.labels.items():
            if not 0 <= idx <= len(self.instructions):
                raise ValueError(f"label {name!r} points outside the program")
        for i, instruction in enumerate(self.instructions):
            target = instruction.branch_target
            if target is not None and target not in self.labels:
                raise ValueError(
                    f"instruction {i} ({instruction}) branches to undefined "
                    f"label {target!r}"
                )

    def used_registers(self) -> set[Reg]:
        regs: set[Reg] = set()
        for instruction in self.instructions:
            regs.update(instruction.defs())
            regs.update(instruction.uses())
        return regs

    def max_reg_index(self, kind) -> int:
        """Highest register index of *kind* used, or -1 if none."""
        indices = [r.index for r in self.used_registers() if r.kind is kind]
        return max(indices, default=-1)

    def copy(self) -> "Program":
        return Program(list(self.instructions), dict(self.labels))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in SIM_MEMOS:
            state.pop(name, None)
        return state


@dataclass
class Kernel:
    """A compiled kernel: code plus the launch-relevant resource footprint.

    ``vgprs_used``/``sgprs_used`` are the register counts the (synthetic)
    register allocator assigned; the BASELINE mechanism additionally pays the
    alignment padding per :class:`~repro.isa.registers.RegisterFileSpec`.
    ``lds_bytes`` is the thread block's shared-memory allocation.
    ``noalias`` asserts that the kernel's loads and stores touch disjoint
    buffers (typical in/out GPU kernels), which widens idempotent regions —
    see :mod:`repro.compiler.idempotence`.
    """

    name: str
    program: Program
    vgprs_used: int
    sgprs_used: int
    lds_bytes: int = 0
    abbrev: str = ""
    provenance: str = ""
    warps_per_block: int = 4
    noalias: bool = False

    def __post_init__(self) -> None:
        self.program.validate()
        from .registers import RegKind

        max_v = self.program.max_reg_index(RegKind.VECTOR)
        max_s = self.program.max_reg_index(RegKind.SCALAR)
        if max_v >= self.vgprs_used:
            raise ValueError(
                f"{self.name}: program uses v{max_v} but only "
                f"{self.vgprs_used} vgprs declared"
            )
        if max_s >= self.sgprs_used:
            raise ValueError(
                f"{self.name}: program uses s{max_s} but only "
                f"{self.sgprs_used} sgprs declared"
            )

    @property
    def display_name(self) -> str:
        return self.abbrev or self.name


def program_from(instructions: Iterable[Instruction], labels=None) -> Program:
    """Build and validate a Program from an instruction iterable."""
    prog = Program(list(instructions), dict(labels or {}))
    prog.validate()
    return prog
