"""Register model for the synthetic SIMT ISA.

The ISA follows the AMD GCN/Vega register organisation that CTXBack was
evaluated on (Vega ISA manual [1] in the paper):

* **Scalar registers** (``s0 .. sN``) are shared by all lanes of a warp and
  occupy 4 bytes per warp.
* **Vector registers** (``v0 .. vN``) have one 4-byte copy *per lane*; with a
  64-lane warp a single vector register occupies 256 bytes of context.
* **Special registers** carry architectural state: the execution mask
  ``EXEC`` (one bit per lane), the scalar condition code ``SCC`` and the
  program counter ``PC``.

Register *allocation* on Vega-class hardware is aligned: vector registers are
granted in groups of 4 and scalar registers in groups of 16 (paper §V).  The
traditional (BASELINE) context-switch routine swaps the full aligned
allocation regardless of liveness, which is why alignment padding matters for
the evaluation.  :class:`RegisterFileSpec` captures the geometry and performs
the byte accounting used throughout the repo.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache


class RegKind(enum.Enum):
    """Architectural register classes."""

    SCALAR = "s"
    VECTOR = "v"
    SPECIAL = "x"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegKind.{self.name}"


@dataclass(frozen=True)
class Reg:
    """A single architectural register.

    Instances are interned via :func:`sreg`/:func:`vreg` so identity-heavy
    analyses (liveness sets, use-def chains) stay cheap.  Ordering is by
    (kind, index), giving deterministic iteration for routine generation.

    The hash is a small integer computed once from (kind, index).  The
    dataclass default would hash the ``RegKind`` member, whose hash is its
    name's string hash: slow on the compiler's hot paths, and different in
    every process, so register sets would iterate in a per-process order.
    """

    kind: RegKind
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"register index must be >= 0, got {self.index}")
        object.__setattr__(
            self, "_hash", self.index * len(_KIND_CODES) + _KIND_CODES[self.kind.value]
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickle the fields only; unpickling recomputes the hash
        return (Reg, (self.kind, self.index))

    def _sort_key(self) -> tuple[str, int]:
        return (self.kind.value, self.index)

    def __lt__(self, other: "Reg") -> bool:
        if not isinstance(other, Reg):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    @property
    def is_scalar(self) -> bool:
        return self.kind is RegKind.SCALAR

    @property
    def is_vector(self) -> bool:
        return self.kind is RegKind.VECTOR

    @property
    def is_special(self) -> bool:
        return self.kind is RegKind.SPECIAL

    def context_bytes(self, warp_size: int) -> int:
        """Bytes this register contributes to a saved warp context."""
        if self.kind is RegKind.VECTOR:
            return 4 * warp_size
        # Scalar and special registers are per-warp words.  EXEC is a
        # 64-bit mask on real hardware; we charge 8 bytes for it.
        if self.kind is RegKind.SPECIAL and self.index == _EXEC_INDEX:
            return 8
        return 4

    def __str__(self) -> str:
        if self.kind is RegKind.SPECIAL:
            return _SPECIAL_NAMES[self.index]
        return f"{self.kind.value}{self.index}"

    def __repr__(self) -> str:
        return str(self)


#: per-kind offset of :meth:`Reg.__hash__`, keyed by ``RegKind.value``
_KIND_CODES = {"s": 0, "v": 1, "x": 2}

# Special register indices.  Kept small and stable; the executor indexes a
# dedicated special-register array with them.
_EXEC_INDEX = 0
_SCC_INDEX = 1
_PC_INDEX = 2
_SPECIAL_NAMES = {_EXEC_INDEX: "exec", _SCC_INDEX: "scc", _PC_INDEX: "pc"}
_SPECIAL_BY_NAME = {name: idx for idx, name in _SPECIAL_NAMES.items()}


@lru_cache(maxsize=None)
def sreg(index: int) -> Reg:
    """Interned scalar register ``s<index>``."""
    return Reg(RegKind.SCALAR, index)


@lru_cache(maxsize=None)
def vreg(index: int) -> Reg:
    """Interned vector register ``v<index>``."""
    return Reg(RegKind.VECTOR, index)


@lru_cache(maxsize=None)
def _special(index: int) -> Reg:
    return Reg(RegKind.SPECIAL, index)


EXEC = _special(_EXEC_INDEX)
SCC = _special(_SCC_INDEX)
PC = _special(_PC_INDEX)

SPECIAL_REGS = (EXEC, SCC, PC)


def parse_reg(text: str) -> Reg:
    """Parse a register name (``v12``, ``s3``, ``exec``, ``scc``)."""
    text = text.strip().lower()
    if text in _SPECIAL_BY_NAME:
        return _special(_SPECIAL_BY_NAME[text])
    if len(text) >= 2 and text[0] in ("s", "v") and text[1:].isdigit():
        index = int(text[1:])
        return sreg(index) if text[0] == "s" else vreg(index)
    raise ValueError(f"not a register: {text!r}")


def is_reg_name(text: str) -> bool:
    """Return True if *text* parses as a register name."""
    try:
        parse_reg(text)
        return True
    except ValueError:
        return False


def _align_up(value: int, granularity: int) -> int:
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    return ((value + granularity - 1) // granularity) * granularity


@dataclass(frozen=True)
class RegisterFileSpec:
    """Geometry of one SM's register files and allocation alignment.

    Defaults model the AMD Vega SM described in paper §II-A: 256 KB vector
    registers, 12.5 KB scalar registers and 64 KB shared memory per SM, with
    vector registers allocated in groups of 4 and scalar registers in groups
    of 16.
    """

    warp_size: int = 64
    vgpr_bytes_per_sm: int = 256 * 1024
    sgpr_bytes_per_sm: int = 12 * 1024 + 512
    lds_bytes_per_sm: int = 64 * 1024
    vgpr_align: int = 4
    sgpr_align: int = 16

    def __post_init__(self) -> None:
        if self.warp_size <= 0:
            raise ValueError("warp_size must be positive")

    @property
    def vgpr_bytes_each(self) -> int:
        """Context bytes of one vector register for one warp."""
        return 4 * self.warp_size

    def allocated_vgprs(self, used: int) -> int:
        """Vector registers granted for *used* registers (alignment incl.)."""
        if used < 0:
            raise ValueError("used must be >= 0")
        return _align_up(used, self.vgpr_align) if used else 0

    def allocated_sgprs(self, used: int) -> int:
        """Scalar registers granted for *used* registers (alignment incl.)."""
        if used < 0:
            raise ValueError("used must be >= 0")
        return _align_up(used, self.sgpr_align) if used else 0

    def warp_context_bytes(
        self, vgprs_used: int, sgprs_used: int, lds_bytes: int = 0
    ) -> int:
        """Full (BASELINE) per-warp context in bytes: aligned allocation.

        This is what the traditional Linux-driver routine swaps: every
        *occupied* on-chip resource, including alignment padding and dead
        registers (paper §II-A, §V).  ``lds_bytes`` is charged as given (LDS
        is allocated per thread block; callers apportion it per warp).
        """
        vec = self.allocated_vgprs(vgprs_used) * self.vgpr_bytes_each
        sca = self.allocated_sgprs(sgprs_used) * 4
        return vec + sca + lds_bytes

    def live_context_bytes(self, regs, lds_bytes: int = 0) -> int:
        """Context bytes for an explicit register set (LIVE-style accounting).

        Special registers (exec mask, scc, pc) are part of any preserved
        context and are charged at their architectural width.
        """
        total = lds_bytes
        for reg in regs:
            total += reg.context_bytes(self.warp_size)
        return total
