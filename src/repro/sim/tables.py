"""Precomputed per-program issue tables for the SM's hot loop.

``SM._issue`` and ``SimWarp.ready_cycle`` run once per simulated cycle; with
the naive implementation every issue re-derives the instruction's register
effects (``uses()``/``defs()`` build fresh tuples and hash ``Reg`` objects),
re-looks-up the opcode spec, and re-walks a string-prefix dispatch chain in
the executor.  :func:`tables_for` hoists all of that to program-build time:

* register operands are interned to small integers (:func:`reg_id`), so the
  scoreboard becomes a plain ``dict[int, int]``;
* per-pc dependence tuples (uses ∪ defs) and def tuples are precomputed;
* branch targets are resolved to instruction indices;
* the executor dispatch is compiled to an integer opcode kind plus the
  pre-resolved ALU/compare callable;
* per-pc result latencies are memoized per timing configuration.

Tables are cached on the :class:`~repro.isa.instruction.Program` instance
and invalidated if the instruction count changes (programs are only mutated
while being built, never mid-simulation).
"""

from __future__ import annotations

from ..isa.instruction import SIM_TABLES_MEMO, Imm, Instruction, Label, Program
from ..isa.opcodes import OpClass
from ..isa.registers import Reg

# -- register interning ---------------------------------------------------------

_REG_IDS: dict[Reg, int] = {}
_REGS_BY_ID: list[Reg] = []


def reg_id(reg: Reg) -> int:
    """Small-integer handle for *reg*, stable for the process lifetime."""
    rid = _REG_IDS.get(reg)
    if rid is None:
        rid = len(_REGS_BY_ID)
        _REG_IDS[reg] = rid
        _REGS_BY_ID.append(reg)
    return rid


def reg_of(rid: int) -> Reg:
    return _REGS_BY_ID[rid]


# -- executor dispatch kinds ----------------------------------------------------

K_VALU = 0  # aux: (op callable, is_float)
K_SALU = 1  # aux: (op callable, is_float)
K_SCMP = 2  # aux: compare callable
K_BRANCH = 3  # aux: (condition, target_index); condition None=always, 0/1=scc
K_ENDPGM = 4
K_NOP = 5  # s_nop / s_barrier / ckpt_probe
K_SLOAD = 6
K_GLOAD = 7
K_GSTORE = 8
K_LDS_READ = 9
K_LDS_WRITE = 10
K_CTX = 11  # context-buffer transfers; dispatched by mnemonic (cold path)


def _compile_dispatch(program: Program, instruction: Instruction):
    """(kind, aux) executor dispatch entry for one instruction."""
    # imported here: executor imports this module for the fast path
    from .executor import _CMP_OPS, _FLOAT_OPS, _INT_OPS

    mnemonic = instruction.mnemonic
    if mnemonic.startswith("v_"):
        base = mnemonic[2:]
        if base in _INT_OPS:
            return K_VALU, (_INT_OPS[base], False)
        return K_VALU, (_FLOAT_OPS[base], True)
    if mnemonic.startswith("s_cmp_"):
        return K_SCMP, _CMP_OPS[mnemonic[len("s_cmp_") :]]
    if mnemonic in ("s_branch", "s_cbranch_scc0", "s_cbranch_scc1"):
        condition = {"s_branch": None, "s_cbranch_scc0": 0, "s_cbranch_scc1": 1}[
            mnemonic
        ]
        target = instruction.srcs[0]
        assert isinstance(target, Label)
        return K_BRANCH, (condition, program.target_index(target.name))
    if mnemonic == "s_endpgm":
        return K_ENDPGM, None
    if mnemonic in ("s_nop", "s_barrier", "ckpt_probe"):
        return K_NOP, None
    if mnemonic == "s_load":
        return K_SLOAD, None
    if mnemonic.startswith("s_"):
        base = mnemonic[2:]
        if base in _INT_OPS:
            return K_SALU, (_INT_OPS[base], False)
        return K_SALU, (_FLOAT_OPS[base], True)
    if mnemonic == "global_load":
        return K_GLOAD, None
    if mnemonic == "global_store":
        return K_GSTORE, None
    if mnemonic == "lds_read":
        return K_LDS_READ, None
    if mnemonic == "lds_write":
        return K_LDS_WRITE, None
    if mnemonic.startswith("ctx_"):
        return K_CTX, None
    raise KeyError(f"no dispatch for {mnemonic}")


class ProgramTables:
    """Issue-time lookup tables for one (immutable) program."""

    __slots__ = (
        "program",
        "n",
        "dep_ids",
        "def_ids",
        "opclass",
        "kind",
        "aux",
        "is_ckpt_probe",
        "mnemonics",
        "writes_exec",
        "_latency_cache",
    )

    def __init__(self, program: Program) -> None:
        from ..isa.registers import EXEC

        self.program = program
        instructions = program.instructions
        self.n = len(instructions)
        self.dep_ids: list[tuple[int, ...]] = []
        self.def_ids: list[tuple[int, ...]] = []
        self.opclass: list[OpClass] = []
        self.kind: list[int] = []
        self.aux: list = []
        self.is_ckpt_probe: list[bool] = []
        #: per-pc mnemonic strings (tracer ``ISSUE`` events, traffic kinds)
        self.mnemonics: list[str] = []
        #: per-pc "writes the EXEC mask" flags — the fast core must drain
        #: deferred vector work before an EXEC write lands (the mask is read
        #: at materialization time, not at issue time)
        self.writes_exec: list[bool] = []
        self._latency_cache: dict[tuple[int, int, int], list[int]] = {}
        exec_id = reg_id(EXEC)
        for instruction in instructions:
            deps: list[int] = []
            for reg in instruction.uses():
                rid = reg_id(reg)
                if rid not in deps:
                    deps.append(rid)
            defs: list[int] = []
            for reg in instruction.defs():
                rid = reg_id(reg)
                if rid not in defs:
                    defs.append(rid)
                if rid not in deps:
                    deps.append(rid)
            self.dep_ids.append(tuple(deps))
            self.def_ids.append(tuple(defs))
            self.opclass.append(instruction.spec.opclass)
            kind, aux = _compile_dispatch(program, instruction)
            self.kind.append(kind)
            self.aux.append(aux)
            self.is_ckpt_probe.append(instruction.mnemonic == "ckpt_probe")
            self.mnemonics.append(instruction.mnemonic)
            self.writes_exec.append(exec_id in defs)

    def latencies(self, valu: int, lds: int, salu: int) -> list[int]:
        """Per-pc result latency under one timing configuration."""
        key = (valu, lds, salu)
        cached = self._latency_cache.get(key)
        if cached is None:
            by_class = {OpClass.VALU: valu, OpClass.LDS: lds}
            cached = [by_class.get(c, salu) for c in self.opclass]
            self._latency_cache[key] = cached
        return cached


def tables_for(program: Program) -> ProgramTables:
    """The (cached) issue tables of *program*.

    The cache key is the instance itself; a length change (the only mutation
    the builder performs) invalidates the cached tables.
    """
    tables = program.__dict__.get(SIM_TABLES_MEMO)
    if tables is None or tables.n != len(program.instructions):
        tables = ProgramTables(program)
        program.__dict__[SIM_TABLES_MEMO] = tables
    return tables
