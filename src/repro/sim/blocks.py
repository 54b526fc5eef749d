"""Basic-block compiler for the fast execution core.

The fast core (:mod:`repro.sim.fastcore`) splits every instruction into a
*timing* half (issued cycle-exactly by the scheduler) and a *semantics*
half.  Scalar semantics (SALU, compares, branches) execute eagerly at issue
time — branch outcomes feed the scheduler — while vector semantics (VALU,
memory, LDS, context transfers) are *deferred*: recorded with their
issue-time scalar operands and materialized in batch at the next barrier.

This module compiles one :class:`~repro.isa.instruction.Program` under one
:class:`~repro.sim.config.GPUConfig` into that split form:

* every pc gets an :class:`OpPlan` — an eager closure, a deferred closure
  (plus a capture function for issue-time scalar operands), a lockstep
  *group* closure for cross-warp batched VALU dispatch, the static memory
  traffic, the result latency and the barrier/boundary flags;
* the program is partitioned into **straight-line basic blocks** (leaders
  at branch targets; boundaries at branches, program ends, checkpoint
  probes and barrier instructions); any contiguous run of a block's
  deferred ops — entered at *any* position, not just the block head — is
  compiled per warp into one bound segment (:func:`bind_segment`) whose
  register rows are resolved once and whose ops are single
  ``ufunc(..., out=row)`` calls, so a warp materializes a whole run
  through one Python call with zero per-op allocation;
* the intermediate representation (:func:`build_ir`) is pure data —
  mnemonics, operand tags, latencies, traffic, block spans — and is keyed
  in the content-addressed artifact cache by the program's assembly text
  plus the **full** canonical ``GPUConfig`` (see
  :func:`repro.analysis.cache.canonical`), so *any* config field that can
  change semantics or timing (warp width, latencies, ctx rates, …)
  produces a different key.  This is the conservative fix for the PR 1
  warp-size aliasing bug class: compiled blocks can never be reused across
  configs that differ anywhere.

Correctness bar: every closure reproduces the reference executor's
semantics bit-for-bit (same NumPy dtypes and formulas where rounding or
wrapping is observable).  The differential twin suite
(``tests/test_fastcore_equiv.py``) holds the two cores to that bar.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

from ..isa.instruction import FAST_PLAN_MEMO, Imm, Label, Program
from ..isa.opcodes import OpClass
from ..isa.registers import EXEC, SCC, RegKind
from .config import GPUConfig
from .executor import _CMP_OPS, _FLOAT_OPS, _INT_OPS, ExecutionError

_M32 = 0xFFFFFFFF
_MASK64 = np.uint64(0xFFFFFFFF)

# -- IR flags --------------------------------------------------------------------

#: materialization barrier: drain all deferred work before executing
F_BARRIER = 1
#: ckpt_probe — the SM may invoke the checkpoint hook at this pc
F_PROBE = 2
#: ends a straight-line block (branch, endpgm, probe, barrier)
F_ENDS = 4

# -- scalar (eager) semantics ----------------------------------------------------

#: Python-int twins of the executor's ``_INT_OPS``.  Operands are 32-bit
#: non-negative ints; results are masked by the caller.  Exactness vs the
#: uint64 NumPy formulas: all operands are < 2**32, so +, *, mad and lshl
#: stay below 2**64 (no uint64 wrap to diverge from exact Python ints);
#: sub relies on ``& 0xFFFFFFFF`` giving the same residue for Python's
#: negative result as for uint64 wraparound; ~ likewise.
_PY_INT_OPS = {
    "mov": lambda a: a,
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "mulhi": lambda a, b: (a * b) >> 32,
    "mad": lambda a, b, c: a * b + c,
    "min": min,
    "max": max,
    "xor": lambda a, b: a ^ b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "not": lambda a: ~a,
    "lshl": lambda a, b: a << (b & 31),
    "lshr": lambda a, b: a >> (b & 31),
}

# scratch pair for exact uint32<->float32 bit casts of captured scalars
_f32_bits = struct.Struct("<I")
_f32_val = struct.Struct("<f")


def _bitcast_f32(value: int) -> np.float32:
    """The float32 whose storage bits are *value* (reference: uint32 view)."""
    return np.float32(_f32_val.unpack(_f32_bits.pack(value & _M32))[0])


# -- operand encoding ------------------------------------------------------------
#
# Operands are encoded as small tuples so the IR pickles without touching
# Reg/Imm objects: ('v', i) vector reg, ('s', i) scalar reg, ('e',) EXEC,
# ('c',) SCC, ('i', value) immediate, ('t', target_pc) branch target.


def _encode_operand(op):
    if isinstance(op, Imm):
        return ("i", op.value & _M32)
    if isinstance(op, Label):
        raise AssertionError("labels are resolved to ('t', pc) by the builder")
    if op.kind is RegKind.VECTOR:
        return ("v", op.index)
    if op.kind is RegKind.SCALAR:
        return ("s", op.index)
    if op == EXEC:
        return ("e",)
    if op == SCC:
        return ("c",)
    raise ExecutionError(f"cannot encode operand {op!r}")


def _is_scalar_read(spec) -> bool:
    """Operand needs an issue-time capture when used by a deferred op?"""
    return spec[0] in ("s", "e", "c")


# -- scalar readers / writers (eager domain) -------------------------------------


def _scalar_reader(spec):
    """Issue-time reader returning the operand's 32-bit value as an int
    (reference ``_scalar_operand``: note EXEC truncates to 32 bits here)."""
    tag = spec[0]
    if tag == "i":
        value = spec[1]
        return lambda st: value
    if tag == "s":
        index = spec[1]
        return lambda st: int(st.sregs[index])
    if tag == "e":
        return lambda st: st._exec_as_int() & _M32
    if tag == "c":
        return lambda st: st.scc
    raise ExecutionError(f"operand {spec!r} is not scalar-readable")


def _scalar_writer(spec):
    """Eager writer matching ``WarpState.set_scalar`` semantics."""
    tag = spec[0]
    if tag == "s":
        index = spec[1]

        def write_sreg(st, value):
            st.sregs[index] = value & _M32

        return write_sreg
    if tag == "e":
        return lambda st, value: st._exec_from_int(value)
    if tag == "c":

        def write_scc(st, value):
            st.scc = value & 1

        return write_scc
    raise ExecutionError(f"cannot write {spec!r} as a scalar")


def _capture_fn(specs):
    """Issue-time capture of a deferred op's scalar operands (or ``None``)."""
    readers = [_scalar_reader(s) for s in specs if _is_scalar_read(s)]
    if not readers:
        return None
    if len(readers) == 1:
        return readers[0]
    if len(readers) == 2:
        r0, r1 = readers
        return lambda st: (r0(st), r1(st))
    return lambda st: tuple(r(st) for r in readers)


def _cap_positions(specs):
    """For each operand: ('cap', k) when the k-th captured value feeds it."""
    positions = []
    k = 0
    n_caps = sum(1 for s in specs if _is_scalar_read(s))
    for spec in specs:
        if _is_scalar_read(spec):
            if n_caps == 1:
                positions.append(("cap",))  # cap IS the value
            else:
                positions.append(("capk", k))
            k += 1
        else:
            positions.append(spec)
    return tuple(positions)


# -- deferred vector closures ----------------------------------------------------


def _u32_fetcher(spec, warp_size, broadcast):
    """Replay-time fetcher in the uint32 compute domain."""
    tag = spec[0]
    if tag == "v":
        index = spec[1]
        return lambda st, cap: st.vregs[index]
    if tag == "i":
        if broadcast:
            const = np.full(warp_size, spec[1], dtype=np.uint32)
            return lambda st, cap: const
        const = np.uint32(spec[1])
        return lambda st, cap: const
    if tag == "cap":
        if broadcast:
            return lambda st, cap: np.full(warp_size, cap, dtype=np.uint32)
        return lambda st, cap: np.uint32(cap)
    if tag == "capk":
        k = spec[1]
        if broadcast:
            return lambda st, cap: np.full(warp_size, cap[k], dtype=np.uint32)
        return lambda st, cap: np.uint32(cap[k])
    raise ExecutionError(f"bad vector operand {spec!r}")


def _u64_fetcher(spec, warp_size):
    """Replay-time fetcher in the reference executor's uint64 domain
    (memory addresses/data and mulhi)."""
    tag = spec[0]
    if tag == "v":
        index = spec[1]
        return lambda st, cap: st.vregs[index].astype(np.uint64)
    if tag == "i":
        const = np.full(warp_size, spec[1], dtype=np.uint64)
        return lambda st, cap: const
    if tag == "cap":
        return lambda st, cap: np.full(warp_size, cap & _M32, dtype=np.uint64)
    if tag == "capk":
        k = spec[1]
        return lambda st, cap: np.full(warp_size, cap[k] & _M32, dtype=np.uint64)
    raise ExecutionError(f"bad vector operand {spec!r}")


def _f32_fetcher(spec, warp_size, broadcast):
    """Replay-time fetcher as float32 (zero-copy view of vector registers —
    bit-identical to the reference's astype(uint32).view(float32))."""
    tag = spec[0]
    if tag == "v":
        index = spec[1]
        return lambda st, cap: st.vregs[index].view(np.float32)
    if tag == "i":
        if broadcast:
            const = np.full(warp_size, _bitcast_f32(spec[1]), dtype=np.float32)
            return lambda st, cap: const
        const = _bitcast_f32(spec[1])
        return lambda st, cap: const
    if tag == "cap":
        if broadcast:
            return lambda st, cap: np.full(
                warp_size, _bitcast_f32(cap), dtype=np.float32
            )
        return lambda st, cap: _bitcast_f32(cap)
    if tag == "capk":
        k = spec[1]
        if broadcast:
            return lambda st, cap: np.full(
                warp_size, _bitcast_f32(cap[k]), dtype=np.float32
            )
        return lambda st, cap: _bitcast_f32(cap[k])
    raise ExecutionError(f"bad vector operand {spec!r}")


def _write_u32(dst_index):
    """Exec-masked uint32 result write (reference ``_write_vector``)."""

    def write(st, result):
        if st.exec_all:
            st.vregs[dst_index][:] = result
        else:
            mask = st.exec_mask
            st.vregs[dst_index][mask] = result[mask]

    return write


def _make_valu_int(base, srcs, dst, warp_size):
    op = _INT_OPS[base]
    # no vector operand at all (e.g. v_mov v1, 5): the reference computes a
    # full-width array from the broadcast operand, so force one here too
    any_vec = any(s[0] == "v" for s in srcs)
    if base == "mulhi":
        fetch = [_u64_fetcher(s, warp_size) for s in srcs]
        a, b = fetch
        write = _write_u32(dst[1])

        def run_mulhi(rt, cap):
            st = rt.state
            result = ((op(a(st, cap), b(st, cap))) & _MASK64).astype(np.uint32)
            write(st, result)

        return run_mulhi
    fetch = [
        _u32_fetcher(s, warp_size, broadcast=(i == 0 and not any_vec))
        for i, s in enumerate(srcs)
    ]
    write = _write_u32(dst[1])
    if len(fetch) == 1:
        f0 = fetch[0]

        def run1(rt, cap):
            st = rt.state
            write(st, op(f0(st, cap)))

        return run1
    if len(fetch) == 2:
        f0, f1 = fetch

        def run2(rt, cap):
            st = rt.state
            write(st, op(f0(st, cap), f1(st, cap)))

        return run2
    f0, f1, f2 = fetch

    def run3(rt, cap):
        st = rt.state
        write(st, op(f0(st, cap), f1(st, cap), f2(st, cap)))

    return run3


def _make_valu_float(base, srcs, dst, warp_size):
    op = _FLOAT_OPS[base]
    any_vec = any(s[0] == "v" for s in srcs)
    fetch = [
        _f32_fetcher(s, warp_size, broadcast=(i == 0 and not any_vec))
        for i, s in enumerate(srcs)
    ]
    dst_index = dst[1]

    def run(rt, cap):
        st = rt.state
        values = [f(st, cap) for f in fetch]
        bits = op(*values).astype(np.float32).view(np.uint32)
        if st.exec_all:
            st.vregs[dst_index][:] = bits
        else:
            mask = st.exec_mask
            st.vregs[dst_index][mask] = bits[mask]

    return run


def _group_fetch_u32(spec):
    """Lockstep-group fetcher over a (warps, num_vregs, lanes) backing view.
    Only const/vector operands — scalar captures disable grouping."""
    tag = spec[0]
    if tag == "v":
        index = spec[1]
        return lambda vb: vb[:, index]
    if tag == "i":
        const = np.uint32(spec[1])
        return lambda vb: const
    return None


def _make_group_int(base, srcs, dst):
    if base == "mulhi" or any(_group_fetch_u32(s) is None for s in srcs):
        return None
    op = _INT_OPS[base]
    fetch = [_group_fetch_u32(s) for s in srcs]
    dst_index = dst[1]

    def run(vb, eb, exec_all, caps):
        result = op(*[f(vb) for f in fetch])
        if exec_all:
            vb[:, dst_index] = result
        else:
            vb[:, dst_index][eb] = result[eb]

    return run


def _make_group_float(base, srcs, dst):
    if any(s[0] not in ("v", "i") for s in srcs):
        return None
    op = _FLOAT_OPS[base]
    dst_index = dst[1]

    def fetcher(spec):
        if spec[0] == "v":
            index = spec[1]
            return lambda vb: vb[:, index].view(np.float32)
        const = _bitcast_f32(spec[1])
        return lambda vb: const

    fetch = [fetcher(s) for s in srcs]

    def run(vb, eb, exec_all, caps):
        bits = op(*[f(vb) for f in fetch]).astype(np.float32).view(np.uint32)
        if exec_all:
            vb[:, dst_index] = bits
        else:
            vb[:, dst_index][eb] = bits[eb]

    return run


# -- per-warp bound segments -----------------------------------------------------
#
# The generic deferred closures above re-resolve register rows and allocate
# result arrays on every call.  For the hot path the fast core instead
# *binds* a run of deferred ops to one warp: register rows (and float32
# views of them) are looked up once, immediates are pre-converted, and each
# op becomes a single ``ufunc(..., out=row)`` call writing the register
# file in place — zero allocations.  The bound form is only valid under a
# full EXEC mask (it writes whole rows); the generated segment checks
# ``exec_all`` once — legal because EXEC writes are barriers, so the mask
# cannot change inside one materialization batch — and falls back to the
# generic exec-masked closures op by op otherwise.
#
# Exactness notes (vs the reference's uint64-then-mask formulas):
# add/sub/mul/mad wrap identically in uint32; and/or/xor/not/min/max are
# value-preserving for operands < 2**32; shift amounts are pre-masked to
# 0..31 so uint32 shifts match the masked uint64 results bit for bit.
# Float ops run on float32 views of the same storage, which is exactly the
# reference's astype(uint32).view(float32) round trip.

_INT_UFUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "xor": np.bitwise_xor,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
}
_FLOAT_UFUNCS = {
    "addf": np.add,
    "subf": np.subtract,
    "mulf": np.multiply,
    "minf": np.minimum,
    "maxf": np.maximum,
}
_SHIFT_UFUNCS = {"lshl": np.left_shift, "lshr": np.right_shift}

#: names every generated segment can reference; merged into each cached
#: entry's constant environment
_BASE_ENV = {
    "_u32": np.uint32,
    "_u64": np.uint64,
    "_bf": _bitcast_f32,
    "_cp": np.copyto,
    "_inv": np.invert,
    "_and": np.bitwise_and,
    "_mul": np.multiply,
    "_add": np.add,
    "_shr64": np.right_shift,
    "_c31": np.uint32(31),
    "_c2": np.uint64(2),
}

#: compiled-segment cache: content key -> (code, consts, regs).  Keyed by
#: the ops' bindspecs (operand tags, immediates, register indices) and the
#: warp size, NOT by program identity — launches rebuild identical program
#: objects every run, and recompiling the generated source each time costs
#: more than executing it.  ``regs`` lists the (name, vreg_index, domain)
#: register rows a per-warp bind must resolve; everything else in
#: ``consts`` (ufuncs, immediates, scratch temporaries) is warp-agnostic.
#: Scratch temporaries are safely shared: materialization is sequential.
_SEG_CACHE: dict = {}


def _emit_bound(i, plan, ws, consts, regs, out) -> bool:
    """Append op *i*'s full-EXEC bound statement(s) to *out* (statement
    strings evaluated against the bind environment); ``False`` — with the
    generic call emitted instead — when the op has no bound form (mulhi,
    LDS ops without an LDS block, context transfers)."""
    bs = plan.bindspec
    if bs is None:
        out.append(f"_d{i}(_rt, caps[{i}])")
        return False
    kind, base, specs, dst = bs

    def reg(idx, domain):
        name = f"_r{idx}" if domain == 0 else f"_rf{idx}"
        regs.add((name, idx, domain))
        return name

    def iexpr(j, spec):
        tag = spec[0]
        if tag == "v":
            return reg(spec[1], 0)
        if tag == "i":
            name = f"_a{i}_{j}"
            consts[name] = np.uint32(spec[1])
            return name
        if tag == "cap":
            return f"_u32(caps[{i}])"
        return f"_u32(caps[{i}][{spec[1]}])"

    if kind == "i":
        oname = reg(dst, 0)
        if base == "mov":
            out.append(f"_cp({oname}, {iexpr(0, specs[0])})")
        elif base == "not":
            out.append(f"_inv({iexpr(0, specs[0])}, out={oname})")
        elif base == "mad":
            tname = f"_t{i}"
            consts[tname] = np.empty(ws, dtype=np.uint32)
            e0, e1, e2 = (iexpr(j, s) for j, s in enumerate(specs))
            out.append(f"_mul({e0}, {e1}, out={tname})")
            out.append(f"_add({tname}, {e2}, out={oname})")
        elif base in _SHIFT_UFUNCS:
            ufname = f"_uf{i}"
            consts[ufname] = _SHIFT_UFUNCS[base]
            e0 = iexpr(0, specs[0])
            tag = specs[1][0]
            if tag == "v":
                tname = f"_t{i}"
                consts[tname] = np.empty(ws, dtype=np.uint32)
                e1 = iexpr(1, specs[1])
                out.append(f"_and({e1}, _c31, out={tname})")
                out.append(f"{ufname}({e0}, {tname}, out={oname})")
            elif tag == "i":
                name = f"_a{i}_1"
                consts[name] = np.uint32(specs[1][1] & 31)
                out.append(f"{ufname}({e0}, {name}, out={oname})")
            elif tag == "cap":
                out.append(f"{ufname}({e0}, _u32(caps[{i}] & 31), out={oname})")
            else:
                k = specs[1][1]
                out.append(
                    f"{ufname}({e0}, _u32(caps[{i}][{k}] & 31), out={oname})"
                )
        else:
            ufname = f"_uf{i}"
            consts[ufname] = _INT_UFUNCS[base]
            e0, e1 = (iexpr(j, s) for j, s in enumerate(specs))
            out.append(f"{ufname}({e0}, {e1}, out={oname})")
        return True

    if kind == "f":

        def fexpr(j, spec):
            tag = spec[0]
            if tag == "v":
                return reg(spec[1], 1)
            if tag == "i":
                name = f"_a{i}_{j}"
                consts[name] = _bitcast_f32(spec[1])
                return name
            if tag == "cap":
                return f"_bf(caps[{i}])"
            return f"_bf(caps[{i}][{spec[1]}])"

        oname = reg(dst, 1)
        if base == "madf":
            tname = f"_t{i}"
            consts[tname] = np.empty(ws, dtype=np.float32)
            e0, e1, e2 = (fexpr(j, s) for j, s in enumerate(specs))
            out.append(f"_mul({e0}, {e1}, out={tname})")
            out.append(f"_add({tname}, {e2}, out={oname})")
        else:
            ufname = f"_uf{i}"
            consts[ufname] = _FLOAT_UFUNCS[base]
            e0, e1 = (fexpr(j, s) for j, s in enumerate(specs))
            out.append(f"{ufname}({e0}, {e1}, out={oname})")
        return True

    # memory domain: address/offset in uint64, via one shared scratch row.
    # byte addresses are sums of two 32-bit values, so the uint64 word
    # index is always in [0, 2**31) — unsigned take/fancy-write bounds
    # checking matches the reference's sign-plus-range checks exactly.
    def mexpr(j, spec, domain):
        tag = spec[0]
        if tag == "v":
            return reg(spec[1], 0)
        if tag == "i":
            name = f"_a{i}_{j}"
            consts[name] = np.uint64(spec[1]) if domain else np.uint32(spec[1])
            return name
        conv = "_u64" if domain else "_u32"
        if tag == "cap":
            return f"{conv}(caps[{i}])"
        return f"{conv}(caps[{i}][{spec[1]}])"

    consts["_tm64"] = consts.get("_tm64", np.empty(ws, dtype=np.uint64))
    if kind == "gl" or kind == "ll":
        target = "_gi" if kind == "gl" else "_li"
        addr = mexpr(0, specs[0], 0)
        off = mexpr(1, specs[1], 1)
        out.append(f"_add({addr}, {off}, out=_tm64)")
        out.append(f"_shr64(_tm64, _c2, out=_tm64)")
        out.append(f"{target}(_tm64, {reg(dst, 0)})")
        return True
    # global/LDS store
    target = "_si" if kind == "gs" else "_sl"
    addr = mexpr(0, specs[0], 0)
    data = mexpr(1, specs[1], 0)
    off = mexpr(2, specs[2], 1)
    out.append(f"_add({addr}, {off}, out=_tm64)")
    out.append(f"_shr64(_tm64, _c2, out=_tm64)")
    out.append(f"{target}(_tm64, {data})")
    return True


def bind_segment(rt, plans):
    """Compile a run of deferred ops into one per-warp ``seg(caps)`` call.

    *caps* is the list of issue-time captures, one entry per op.  The
    generated function replays the whole run through bound ``out=`` ufuncs
    and full-warp gathers/scatters when the warp's EXEC mask is full, and
    through the generic exec-masked closures otherwise; both branches
    preserve program order, so memory effects are identical either way.
    The generated code object and its warp-agnostic constants are cached
    by op content (see ``_SEG_CACHE``); a bind only resolves the warp's
    register rows and replays the cached ``def``.
    """
    st = rt.state
    has_lds = rt.lds is not None
    key = (st.warp_size, has_lds, tuple(p.bindspec or "g" for p in plans))
    entry = _SEG_CACHE.get(key)
    if entry is None:
        consts = dict(_BASE_ENV)
        regs: set = set()
        fast: list[str] = []
        slow: list[str] = []
        bindable = False
        for i, plan in enumerate(plans):
            slow.append(f"_d{i}(_rt, caps[{i}])")
            bs = plan.bindspec
            if bs is not None and bs[0] in ("ll", "lw") and not has_lds:
                # no LDS block attached: the generic closure raises the
                # reference's ExecutionError
                fast.append(f"_d{i}(_rt, caps[{i}])")
                continue
            if _emit_bound(i, plan, st.warp_size, consts, regs, fast):
                bindable = True
        if bindable:
            src = ["def _seg(caps):", "    if _st.exec_all:"]
            src += ["        " + line for line in fast]
            src.append("    else:")
            src += ["        " + line for line in slow]
        else:
            src = ["def _seg(caps):"] + ["    " + line for line in slow]
        code = compile("\n".join(src), "<fastseg>", "exec")
        entry = _SEG_CACHE[key] = (code, consts, tuple(regs))
    code, consts, regs = entry
    env = dict(consts)
    env["_rt"] = rt
    env["_st"] = st
    memory = rt.memory
    env["_gi"] = memory.gather_into
    env["_si"] = memory.scatter_full
    if has_lds:
        env["_li"] = rt.lds.gather_into
        env["_sl"] = rt.lds.scatter_full
    vregs = st.vregs
    for name, idx, domain in regs:
        row = vregs[idx]
        env[name] = row.view(np.float32) if domain else row
    for i, plan in enumerate(plans):
        env[f"_d{i}"] = plan.defer
    exec(code, env)  # noqa: S102 - trusted, generated source
    return env["_seg"]


def _off_value(spec):
    """Deferred memory offset: a bound constant or the captured value."""
    tag = spec[0]
    if tag == "i":
        const = np.uint64(spec[1])
        return lambda cap: const
    if tag == "cap":
        return lambda cap: np.uint64(cap)
    if tag == "capk":
        k = spec[1]
        return lambda cap: np.uint64(cap[k])
    raise ExecutionError(f"bad scalar operand {spec!r}")


def _make_global_load(srcs, dst, warp_size):
    addr = _u64_fetcher(srcs[0], warp_size)
    off = _off_value(srcs[1])
    dst_index = dst[1]

    def run(rt, cap):
        st = rt.state
        mask = st.exec_mask
        loaded = rt.memory.gather(addr(st, cap) + off(cap), mask)
        st.vregs[dst_index][mask] = loaded[mask]

    return run


def _make_global_store(srcs, warp_size):
    addr = _u64_fetcher(srcs[0], warp_size)
    data = _u64_fetcher(srcs[1], warp_size)
    off = _off_value(srcs[2])

    def run(rt, cap):
        st = rt.state
        rt.memory.scatter(addr(st, cap) + off(cap), data(st, cap), st.exec_mask)

    return run


def _require_lds(rt):
    if rt.lds is None:
        raise ExecutionError("kernel uses LDS but no LDS block is attached")
    return rt.lds


def _make_lds_read(srcs, dst, warp_size):
    addr = _u64_fetcher(srcs[0], warp_size)
    off = _off_value(srcs[1])
    dst_index = dst[1]

    def run(rt, cap):
        st = rt.state
        mask = st.exec_mask
        loaded = _require_lds(rt).gather(addr(st, cap) + off(cap), mask)
        st.vregs[dst_index][mask] = loaded[mask]

    return run


def _make_lds_write(srcs, warp_size):
    addr = _u64_fetcher(srcs[0], warp_size)
    data = _u64_fetcher(srcs[1], warp_size)
    off = _off_value(srcs[2])

    def run(rt, cap):
        st = rt.state
        _require_lds(rt).scatter(addr(st, cap) + off(cap), data(st, cap), st.exec_mask)

    return run


def _make_ctx(mnemonic, srcs, dsts):
    """Context-buffer transfers (reference ``Executor._exec_ctx``)."""
    if mnemonic == "ctx_store_v":
        reg_index, slot = srcs[0][1], srcs[1][1]

        def store_v(rt, cap):
            st = rt.state
            st.ctx_buffer[slot] = st.vregs[reg_index].copy()

        return store_v
    if mnemonic == "ctx_load_v":
        slot = srcs[0][1]
        dst_index = dsts[0][1]

        def load_v(rt, cap):
            st = rt.state
            stored = st.ctx_buffer[slot]
            if np.isscalar(stored) or getattr(stored, "ndim", 1) == 0:
                st.vregs[dst_index, :] = np.uint32(int(stored) & _M32)
            else:
                st.vregs[dst_index, :] = stored

        return load_v
    if mnemonic == "ctx_store_lds":

        def store_lds(rt, cap):
            rt.state.ctx_buffer["lds"] = _require_lds(rt).snapshot()

        return store_lds
    if mnemonic == "ctx_load_lds":

        def load_lds(rt, cap):
            lds = _require_lds(rt)
            if "lds" in rt.state.ctx_buffer:
                lds.restore(rt.state.ctx_buffer["lds"])

        return load_lds
    raise ExecutionError(f"no semantics for {mnemonic}")


# -- eager closures --------------------------------------------------------------


def _make_salu_int(base, srcs, dst, next_pc):
    op = _PY_INT_OPS[base]
    readers = [_scalar_reader(s) for s in srcs]
    write = _scalar_writer(dst)
    if len(readers) == 1:
        r0 = readers[0]

        def run1(rt):
            st = rt.state
            write(st, op(r0(st)) & _M32)
            return next_pc

        return run1
    if len(readers) == 2:
        r0, r1 = readers

        def run2(rt):
            st = rt.state
            write(st, op(r0(st), r1(st)) & _M32)
            return next_pc

        return run2
    r0, r1, r2 = readers

    def run3(rt):
        st = rt.state
        write(st, op(r0(st), r1(st), r2(st)) & _M32)
        return next_pc

    return run3


def _make_salu_float(base, srcs, dst, next_pc):
    """Float SALU: mirror ``Executor._salu_op`` exactly (length-1 float32
    arrays, so rounding matches bit-for-bit)."""
    op = _FLOAT_OPS[base]
    readers = [_scalar_reader(s) for s in srcs]
    write = _scalar_writer(dst)

    def run(rt):
        st = rt.state
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            arrays = [
                np.array([r(st)], dtype=np.uint64).astype(np.uint32).view(np.float32)
                for r in readers
            ]
            bits = op(*arrays).astype(np.float32).view(np.uint32)
            write(st, int(bits[0]))
        return next_pc

    return run


def _make_scmp(base, srcs, next_pc):
    op = _CMP_OPS[base]
    r0, r1 = (_scalar_reader(s) for s in srcs)

    def run(rt):
        st = rt.state
        st.scc = int(op(r0(st), r1(st)))
        return next_pc

    return run


def _make_branch(condition, target, fallthrough):
    if condition is None:
        return lambda rt: target

    def run(rt):
        if rt.state.scc == condition:
            return target
        return fallthrough

    return run


def _make_sload(srcs, dst, next_pc):
    r_addr, r_off = (_scalar_reader(s) for s in srcs)
    write = _scalar_writer(dst)

    def run(rt):
        st = rt.state
        write(st, rt.memory.load_word(r_addr(st) + r_off(st)))
        return next_pc

    return run


def _make_ctx_scalar(mnemonic, srcs, dsts, next_pc):
    if mnemonic == "ctx_store_s":
        # reference stores get_scalar() unmasked: EXEC keeps all 64 bits
        if srcs[0] == ("e",):
            reader = lambda st: st._exec_as_int()  # noqa: E731
        else:
            reader = _scalar_reader(srcs[0])
        slot = srcs[1][1]

        def store_s(rt):
            st = rt.state
            st.ctx_buffer[slot] = reader(st)
            return next_pc

        return store_s
    slot = srcs[0][1]
    write = _scalar_writer(dsts[0])

    def load_s(rt):
        st = rt.state
        write(st, int(st.ctx_buffer[slot]))
        return next_pc

    return load_s


# -- IR --------------------------------------------------------------------------


def build_ir(program: Program, config: GPUConfig) -> dict:
    """Pure-data compilation artifact for one (program, config) pair.

    Pickles cleanly (tuples of tags/ints/strings only) so it can live in
    the content-addressed artifact cache; :func:`compile_plan` turns it
    back into executable closures without re-reading the program.
    """
    from .tables import tables_for

    tables = tables_for(program)
    warp_size = config.warp_size
    n = tables.n
    ops = []
    for pc, instruction in enumerate(program.instructions):
        mnemonic = instruction.mnemonic
        srcs = []
        for src in instruction.srcs:
            if isinstance(src, Label):
                srcs.append(("t", program.target_index(src.name)))
            else:
                srcs.append(_encode_operand(src))
        dsts = [_encode_operand(d) for d in instruction.dsts]
        opclass = instruction.spec.opclass
        if opclass is OpClass.VALU:
            latency = config.valu_latency
        elif opclass is OpClass.LDS:
            latency = config.lds_latency
        else:
            latency = config.salu_latency

        traffic = None
        flags = 0
        if mnemonic == "s_load":
            traffic = (4, False, "smem")
            flags |= F_BARRIER | F_ENDS
        elif mnemonic == "global_load":
            traffic = (4 * warp_size, False, "load")
        elif mnemonic == "global_store":
            traffic = (4 * warp_size, False, "store")
        elif mnemonic == "ctx_store_v":
            traffic = (4 * warp_size, True, "ctx_store")
        elif mnemonic == "ctx_load_v":
            traffic = (4 * warp_size, True, "ctx_load")
        elif mnemonic == "ctx_store_s":
            nbytes = 8 if srcs[0] == ("e",) else 4
            traffic = (nbytes, True, "ctx_store")
            flags |= F_BARRIER | F_ENDS
        elif mnemonic == "ctx_load_s":
            nbytes = 8 if dsts[0] == ("e",) else 4
            traffic = (nbytes, True, "ctx_load")
            flags |= F_BARRIER | F_ENDS
        elif mnemonic == "ctx_store_lds":
            traffic = (srcs[0][1], True, "ctx_store")
        elif mnemonic == "ctx_load_lds":
            traffic = (srcs[0][1], True, "ctx_load")

        if traffic is not None and not traffic[0]:
            # zero-byte transfers never reach the pipeline in the
            # reference core (``if traffic.nbytes``): use the latency path
            traffic = None
        if mnemonic == "ckpt_probe":
            flags |= F_PROBE | F_ENDS
        if tables.kind[pc] in (3, 4):  # K_BRANCH, K_ENDPGM
            flags |= F_ENDS
        if tables.writes_exec[pc]:
            # an eager EXEC write must not land while deferred vector work
            # (which reads the mask at materialization) is still queued
            flags |= F_BARRIER | F_ENDS
        ops.append((mnemonic, tuple(dsts), tuple(srcs), latency, traffic, flags))

    # block partition: leaders at 0, branch targets, and after every
    # block-ending instruction
    leaders = {0, n}
    for pc, (mnemonic, dsts, srcs, latency, traffic, flags) in enumerate(ops):
        if flags & F_ENDS:
            leaders.add(pc + 1)
            if flags & (F_PROBE | F_BARRIER):
                leaders.add(pc)
        for src in srcs:
            if src[0] == "t":
                leaders.add(src[1])
    bounds = sorted(b for b in leaders if 0 <= b <= n)
    blocks = [
        (lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    return {"n": n, "warp_size": warp_size, "ops": ops, "blocks": blocks}


def ir_cache_parts(program: Program, config: GPUConfig) -> dict:
    """Artifact-cache key parts for a compiled program: the assembly text
    plus the full canonical config (every field participates — the
    warp-size-aliasing regression guard)."""
    from ..analysis.cache import canonical
    from ..isa.assembler import serialize

    return {"asm": serialize(program), "config": canonical(config)}


def cached_ir(program: Program, config: GPUConfig) -> dict:
    """The program's IR via the content-addressed artifact cache."""
    from ..analysis.cache import get_cache

    return get_cache().get_or_create(
        "blocks", ir_cache_parts(program, config), lambda: build_ir(program, config)
    )


# -- compiled plans --------------------------------------------------------------


class OpPlan:
    """Issue-time plan for one pc: eager/deferred closures + static timing."""

    __slots__ = (
        "pc",
        "mnemonic",
        "eager",
        "defer",
        "capture",
        "group",
        "latency",
        "traffic",
        "barrier",
        "probe",
        "ends",
        "block",
        "defer_index",
        "bindspec",
    )

    def __init__(self, pc, mnemonic, eager, defer, capture, group, latency, traffic, flags):
        self.pc = pc
        self.mnemonic = mnemonic
        self.eager = eager  # eager(rt) -> next_pc, or None (pure defer / nop)
        self.defer = defer  # defer(rt, cap) -> None, or None
        self.capture = capture  # capture(state) -> cap, or None
        self.group = group  # group(vb, eb, exec_all, caps) -> None, or None
        self.latency = latency
        self.traffic = traffic  # (nbytes, is_ctx, kind) or None
        self.barrier = bool(flags & F_BARRIER)
        self.probe = bool(flags & F_PROBE)
        self.ends = bool(flags & F_ENDS)
        self.block = None  # BlockInfo, set for consolidatable deferred ops
        self.defer_index = -1  # position in block's deferred sequence
        self.bindspec = None  # (kind, base, specs, dst) for bound VALU forms


class BlockInfo:
    """One straight-line block's deferred-op sequence."""

    __slots__ = ("lo", "hi", "defer_plans", "n_defer", "gsegs")

    def __init__(self, lo, hi, defer_plans):
        self.lo = lo
        self.hi = hi
        self.defer_plans = defer_plans
        self.n_defer = len(defer_plans)
        #: (start, count) -> tuple of lockstep group closures, or False
        #: when any op in the span is ungroupable (lazily filled)
        self.gsegs = {}


class ProgramPlan:
    """All per-pc plans plus the block partition of one compiled program."""

    __slots__ = ("n", "plans", "blocks", "warp_size", "rows", "xrows")

    def __init__(self, ir: dict):
        self.n = ir["n"]
        self.warp_size = ir["warp_size"]
        self.plans = [_compile_op(pc, *op, warp_size=self.warp_size)
                      for pc, op in enumerate(ir["ops"])]
        for plan in self.plans:
            # s_endpgm jumps to one-past-the-end, like the reference
            # executor; mid-program endpgms matter for multi-exit kernels
            if plan.mnemonic == "s_endpgm":
                plan.eager = lambda rt, _n=self.n: _n
        self.blocks = []
        for lo, hi in ir["blocks"]:
            defer_plans = [p for p in self.plans[lo:hi] if p.defer is not None]
            block = BlockInfo(lo, hi, defer_plans)
            self.blocks.append(block)
            for index, plan in enumerate(defer_plans):
                plan.block = block
                plan.defer_index = index
        # flat per-pc issue rows: one subscript + unpack in the fast core's
        # inner loop instead of a cascade of attribute reads
        self.rows = [
            (
                p.eager,
                p.defer,
                p.capture,
                p.block,
                p.defer_index,
                p.barrier,
                p.probe,
                p.traffic,
                p.latency,
                p.mnemonic,
            )
            for p in self.plans
        ]
        #: rows extended with scoreboard ids and precomputed pipeline
        #: service time, filled by the fast core on first use (they need
        #: the dependence tables and the config's streaming rate)
        self.xrows = None


def _compile_op(pc, mnemonic, dsts, srcs, latency, traffic, flags, *, warp_size):
    next_pc = pc + 1
    eager = None
    defer = None
    capture = None
    group = None

    bindspec = None
    if mnemonic.startswith("v_"):
        base = mnemonic[2:]
        specs = _cap_positions(srcs)
        capture = _capture_fn(srcs)
        if base in _INT_OPS:
            defer = _make_valu_int(base, specs, dsts[0], warp_size)
            group = _make_group_int(base, srcs, dsts[0]) if capture is None else None
            if base != "mulhi":
                bindspec = ("i", base, specs, dsts[0][1])
        else:
            defer = _make_valu_float(base, specs, dsts[0], warp_size)
            group = _make_group_float(base, srcs, dsts[0]) if capture is None else None
            bindspec = ("f", base, specs, dsts[0][1])
    elif mnemonic.startswith("s_cmp_"):
        eager = _make_scmp(mnemonic[len("s_cmp_"):], srcs, next_pc)
    elif mnemonic in ("s_branch", "s_cbranch_scc0", "s_cbranch_scc1"):
        condition = {"s_branch": None, "s_cbranch_scc0": 0, "s_cbranch_scc1": 1}[
            mnemonic
        ]
        eager = _make_branch(condition, srcs[0][1], next_pc)
    elif mnemonic == "s_endpgm":
        pass  # fastcore handles end-of-program via the ENDS flag
    elif mnemonic in ("s_nop", "s_barrier", "ckpt_probe"):
        pass
    elif mnemonic == "s_load":
        eager = _make_sload(srcs, dsts[0], next_pc)
    elif mnemonic.startswith("s_"):
        base = mnemonic[2:]
        if base in _PY_INT_OPS:
            eager = _make_salu_int(base, srcs, dsts[0], next_pc)
        else:
            eager = _make_salu_float(base, srcs, dsts[0], next_pc)
    elif mnemonic == "global_load":
        specs = _cap_positions(srcs)
        capture = _capture_fn(srcs)
        defer = _make_global_load(specs, dsts[0], warp_size)
        bindspec = ("gl", None, specs, dsts[0][1])
    elif mnemonic == "global_store":
        specs = _cap_positions(srcs)
        capture = _capture_fn(srcs)
        defer = _make_global_store(specs, warp_size)
        bindspec = ("gs", None, specs, None)
    elif mnemonic == "lds_read":
        specs = _cap_positions(srcs)
        capture = _capture_fn(srcs)
        defer = _make_lds_read(specs, dsts[0], warp_size)
        bindspec = ("ll", None, specs, dsts[0][1])
    elif mnemonic == "lds_write":
        specs = _cap_positions(srcs)
        capture = _capture_fn(srcs)
        defer = _make_lds_write(specs, warp_size)
        bindspec = ("lw", None, specs, None)
    elif mnemonic in ("ctx_store_s", "ctx_load_s"):
        eager = _make_ctx_scalar(mnemonic, srcs, dsts, next_pc)
    elif mnemonic.startswith("ctx_"):
        defer = _make_ctx(mnemonic, srcs, dsts)
    else:  # pragma: no cover - opcode table keeps this exhaustive
        raise ExecutionError(f"no fast-core semantics for {mnemonic}")

    plan = OpPlan(
        pc, mnemonic, eager, defer, capture, group, latency, traffic, flags
    )
    plan.bindspec = bindspec
    if mnemonic == "s_endpgm":
        plan.ends = True
    return plan


def plan_for(program: Program, config: GPUConfig, *, use_cache: bool = False) -> ProgramPlan:
    """The (memoized) compiled plan of *program* under *config*.

    Memoized on the program instance like
    :func:`repro.sim.tables.tables_for`; with ``use_cache`` the IR goes
    through the content-addressed artifact cache (main kernels — routines
    are small one-shot programs and compile directly).
    """
    cached = program.__dict__.get(FAST_PLAN_MEMO)
    if (
        cached is not None
        and cached[0] is config
        and cached[1] == len(program.instructions)
    ):
        return cached[2]
    ir = cached_ir(program, config) if use_cache else build_ir(program, config)
    plan = ProgramPlan(ir)
    program.__dict__[FAST_PLAN_MEMO] = (config, len(program.instructions), plan)
    return plan
