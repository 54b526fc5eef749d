"""Simulator configuration: Radeon-VII-like SM geometry and timing.

The paper evaluates on an AMD Radeon VII (Vega 20): 60 CUs, 256 KB vector
registers / 12.5 KB scalar registers / 64 KB LDS per CU, ~1 TB/s HBM2.  The
simulator models a single SM (CU) with its proportional share of device
bandwidth.  Two memory-service rates exist:

* ``mem_bytes_per_cycle`` — streaming kernel traffic (coalesced loads and
  stores at the SM's bandwidth share);
* ``ctx_request_overhead`` — the per-request cost of the context-switch
  routines.  The paper measures the Linux-driver routine at 75–330 µs per
  preemption, far below raw bandwidth, because the routine is issued
  register-by-register under driver control; the overhead constant is
  calibrated so BASELINE lands in the paper's Table I band (EXPERIMENTS.md
  records the calibration).

All figure-level comparisons are normalized to BASELINE, so shape
conclusions do not depend on the absolute calibration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..isa.registers import RegisterFileSpec

#: environment override for :attr:`GPUConfig.core`
CORE_ENV = "REPRO_CORE"

#: valid execution cores: ``fast`` is the batched/compiled core
#: (:mod:`repro.sim.fastcore`); ``reference`` is the single-step
#: interpreter the fast core is differentially tested against.
VALID_CORES = ("fast", "reference")


@dataclass(frozen=True)
class GPUConfig:
    """One SM's geometry and timing parameters."""

    rf_spec: RegisterFileSpec = field(default_factory=RegisterFileSpec)
    clock_ghz: float = 1.8
    #: instructions issued per cycle across the SM's warps
    issue_width: int = 1
    #: result latencies (cycles) by pipeline class
    valu_latency: int = 4
    salu_latency: int = 1
    lds_latency: int = 24
    smem_latency: int = 100
    mem_latency: int = 300
    #: streaming device-memory bandwidth share of this SM, bytes/cycle
    mem_bytes_per_cycle: float = 8.0
    #: effective context-swap throughput, bytes/cycle.  The driver-managed
    #: swap routine moves context far below raw bandwidth: Table I implies
    #: ~0.08-0.2 B/cycle per SM (e.g. KM: 54 KB per 4-warp block in 327 µs
    #: at 1.8 GHz).  Calibrated so BASELINE lands in the paper's band.
    ctx_bytes_per_cycle: float = 0.093
    #: restore traffic pipelines better than the store path ("the resuming
    #: time is usually shorter than the preemption time because of better
    #: memory latency hiding", Table I discussion)
    ctx_load_speedup: float = 1.9
    #: fixed per-request service cycles for context-buffer accesses
    ctx_request_overhead: float = 16.0
    #: CKPT: checkpoint every Nth execution of the instrumented basic block
    ckpt_interval: int = 16
    #: scoreboard entries kept before completed writes are pruned.  The
    #: per-warp scoreboard (register -> completion cycle) only grows while
    #: long-latency results are outstanding; pruning on every issue would
    #: cost a dict rebuild per instruction, while never pruning makes the
    #: ready-cycle lookups walk stale entries.  The threshold trades the
    #: (amortized) rebuild cost against lookup-table size; 64 comfortably
    #: exceeds the register count a warp can have in flight under the
    #: default latencies, so rebuilds are rare in practice.
    scoreboard_prune_threshold: int = 64
    #: safety valve for run-away simulations
    max_cycles: int = 30_000_000
    #: record structured trace events (:mod:`repro.obs`).  Off by default:
    #: the disabled tracer costs one attribute check per issue and cannot
    #: change simulated cycles (``REPRO_TRACE=1`` enables it too)
    trace_events: bool = False
    #: ``"routine"`` records the preemption life-cycle events only;
    #: ``"issue"`` additionally records one event per issued instruction
    #: (``REPRO_TRACE=issue`` raises this from the environment)
    trace_detail: str = "routine"
    #: execution core: ``"fast"`` (batched warp stepping + compiled basic
    #: blocks, bit-identical timing) or ``"reference"`` (the single-step
    #: interpreter).  ``REPRO_CORE`` overrides this at SM construction.
    #: Part of the frozen config, so run-dependent artifact-cache keys
    #: (experiment profiles, compiled blocks) separate by core; prepared
    #: kernels key on ``rf_spec`` only, which compiling alone reads.
    core: str = "fast"

    def __post_init__(self) -> None:
        # reject degenerate rates up front: a zero bandwidth divides by
        # zero at the first memory request, and a falsy-zero context rate
        # used to silently alias the streaming rate (see MemoryPipeline)
        for name in ("mem_bytes_per_cycle", "ctx_bytes_per_cycle",
                     "ctx_load_speedup", "clock_ghz"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"GPUConfig.{name} must be > 0, got {value!r}")
        for name in ("ckpt_interval", "max_cycles", "issue_width"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"GPUConfig.{name} must be >= 1, got {value!r}")
        if self.core not in VALID_CORES:
            raise ValueError(
                f"GPUConfig.core must be one of {VALID_CORES}, got {self.core!r}"
            )

    @property
    def warp_size(self) -> int:
        return self.rf_spec.warp_size

    @property
    def resolved_core(self) -> str:
        """Effective core: ``REPRO_CORE`` wins over :attr:`core`."""
        env = os.environ.get(CORE_ENV, "").strip().lower()
        if env in VALID_CORES:
            return env
        return self.core

    def cycles_to_us(self, cycles: float) -> float:
        """Convert simulated cycles to microseconds at the configured clock."""
        return cycles / (self.clock_ghz * 1e3)

    @staticmethod
    def radeon_vii() -> "GPUConfig":
        """The evaluation configuration (paper §V)."""
        return GPUConfig(rf_spec=RegisterFileSpec(warp_size=64))

    @staticmethod
    def radeon_vii_contended() -> "GPUConfig":
        """Fully-occupied-SM emulation for the Fig. 8-10 experiments.

        The paper runs batch-job kernels at full occupancy (~40 resident
        warps per SM); simulating a handful of warps, the equivalent
        per-warp-group share of streaming bandwidth is much smaller.  This
        preset scales streaming bandwidth down accordingly so that the
        *relative* costs the figures depend on — executing deferred
        instructions (CS-Defer), re-executing checkpoint rollback windows
        (CKPT) — stand in the paper's proportion to context-transfer time.
        """
        return GPUConfig(
            rf_spec=RegisterFileSpec(warp_size=64),
            mem_bytes_per_cycle=0.35,
            mem_latency=500,
        )

    @staticmethod
    def small(warp_size: int = 4) -> "GPUConfig":
        """A small, fast configuration for unit and property tests."""
        return GPUConfig(
            rf_spec=RegisterFileSpec(warp_size=warp_size),
            mem_latency=40,
            smem_latency=16,
            lds_latency=8,
            ctx_bytes_per_cycle=2.0,
            ctx_request_overhead=4.0,
            max_cycles=2_000_000,
        )
