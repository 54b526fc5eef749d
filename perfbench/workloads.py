"""The four workloads: set-up, one timed pass, output checks, and the
simulated figures each one reports.

Every workload runs in this process with the engine serial (``jobs=1``)
and points the artifact cache at directories under the run's scratch
directory, so no user cache is read or written.  A *cold* pass starts
from an empty artifact cache (for ``serve_fleet``: one holding only the
calibration), a *warm* pass from the cache the previous pass filled,
through a new cache object, as a second CLI run would.  Pass 0 is cold,
and it is the first time the process runs the work, so it also pays the
one-off compiling that the program then keeps in process memory.  That
is why ``core_matrix`` and ``mc_check``, whose passes differ in nothing
else, repeat their cold pass as pass 0 of fresh child processes (each
child runs a warm pass 1 too).  A pass
times only the calls listed in its ``timed`` intervals; preparing caches
and digesting outputs happen between them.

Why these four (each stresses layers the others leave idle):

- ``paper_sweep``: the full 12-kernel headline sweep, first on an empty
  cache (the compiler's workload: OSRB, liveness, flashback planning,
  routine sharing, plus the fast core) and then on the filled cache (no
  compile, no simulation: cache decode and engine dispatch).
- ``core_matrix``: the bare fast core over the headline matrix; the
  compiler and cache do nothing here.
- ``serve_fleet``: plain, migrating and chaos serving with calibration
  done in set-up, so only the serve layer's two shard event loops run.
- ``mc_check``: the model checker, whose replay and state digests no
  other workload exercises.
"""

from __future__ import annotations

import dataclasses
import functools
import shutil
from collections import Counter
from pathlib import Path

import repro.mc as mc
import repro.serve as serve
import repro.sim.gpu as gpu
from repro.analysis import ExperimentEngine, headline
from repro.analysis.cache import configure_cache
from repro.kernels import SUITE
from repro.mechanisms import make_mechanism
from repro.sim import GPUConfig
from repro.sim.digest import memory_digest
from repro.snap.units import snap_profile_for

from hostspeed import SAMPLES_PER_PASS, host_samples, sampled, scale_for

#: the paper's abstract (simulated-time claims, normalised to BASELINE)
PAPER = {
    "sim_context_reduction_pct": 61.0,
    "sim_preempt_reduction_pct": 63.1,
    "sim_resume_reduction_pct": 50.0,
}

#: the ``run_seconds`` of BENCHMARK.json; each workload's pass count is for it
RUN_SECONDS = 15

#: The simulated figures as recorded, at full precision.  Simulated time is
#: deterministic: a change for speed or simplicity must reproduce them
#: exactly, and a change to the simulated model must record them anew.
#: The headline sweep does not depend on the seed.
RECORDED_HEADLINE = {
    "context_reduction_pct": 65.76404575445298,
    "context_vs_min": 1.0230460247852573,
    "preempt_reduction_pct": 61.722415542938336,
    "resume_reduction_pct": 59.24268052058681,
    "overhead_pct": 8.628998977578721e-05,
    "csdefer_latency_vs_ctxback": 1.082584401820413,
    "csdefer_resume_reduction_pct": 66.30342432598972,
}
#: the serve figures follow the arrival trace: recorded for the default
#: seed and the held-out one
RECORDED_SERVE = {
    0: {"serve_interactive_p99_us": 201.734, "serve_slo_violation_rate": 0.122},
    1000: {"serve_interactive_p99_us": 235.394, "serve_slo_violation_rate": 0.099},
}


@dataclasses.dataclass
class Pass:
    cold: bool
    ops: int
    intervals: list[tuple[float, float]]  # (start, end) of each timed call
    output: object
    host: list[float]  # reference-loop samples taken during the pass

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.intervals)

    @property
    def scale(self) -> float:
        """Factor from this pass's wall seconds to seconds at the reference
        host speed."""
        return scale_for(self.host)


class Workload:
    """One workload; a fresh instance per measured sequence."""

    name = ""
    op = ""  # what one unit of ``ops`` is
    why = ""
    #: passes in a run of ``RUN_SECONDS``
    passes = 4
    #: fresh child processes, each running a cold and a warm pass, in
    #: untraced runs
    children = 0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.engines: list[ExperimentEngine] = []
        self.cache = None  # the artifact cache the workload points at
        #: hits, misses and stores of every artifact cache the workload left
        self.cache_counts: Counter = Counter()
        self._intervals: list = []
        self._host: list[float] = []
        self._dirs = 0
        self._pass_root: Path | None = None

    @classmethod
    def passes_for(cls, seconds: float) -> int:
        """Passes in a run measuring about *seconds*, at least one cold and
        one warm.  The count does not depend on host speed, so memory use
        and per-layer counts do not either."""
        return max(2, round(cls.passes * seconds / RUN_SECONDS))

    # -- helpers ----------------------------------------------------------------

    def _next_dir(self) -> Path:
        self._dirs += 1
        return self.scratch / f"{self.name}-{id(self)}-{self._dirs}"

    def use_cache(self, root: Path) -> None:
        """Point the process at the artifact cache in *root*."""
        self.close_cache()
        self.cache = configure_cache(root=root, enabled=True, max_bytes=0)

    def close_cache(self) -> None:
        """Add the counters of the current artifact cache to ``cache_counts``
        (replacing a cache flushes and zeroes them)."""
        if self.cache is not None:
            stats = self.cache.stats
            self.cache_counts.update(hits=stats.hits, misses=stats.misses, stores=stats.stores)
            self.cache = None

    def fresh_cache(self) -> Path:
        """Point the process at a new, empty artifact-cache directory."""
        root = self._next_dir()
        self.use_cache(root)
        return root

    def is_cold(self, index: int) -> bool:
        """Pass 0 only: later passes reuse what it compiled and cached."""
        return index == 0

    def cold_cache(self) -> Path:
        return self.fresh_cache()

    def pass_cache(self, index: int) -> None:
        """Point the process at the cache pass *index* starts from."""
        if self.is_cold(index):
            self._pass_root = self.cold_cache()
        else:
            self.use_cache(self._pass_root)

    def engine(self) -> ExperimentEngine:
        engine = ExperimentEngine(jobs=1)
        self.engines.append(engine)
        return engine

    def timed(self, fn, /, *args, **kwargs):
        start, end, result = sampled(self._host, fn, *args, **kwargs)
        self._intervals.append((start, end))
        return result

    def run(self, index: int) -> Pass:
        self._intervals = []
        self._host = []
        self.pass_cache(index)
        ops, output = self.run_pass(index)
        self._host += host_samples(SAMPLES_PER_PASS)
        return Pass(self.is_cold(index), ops, self._intervals, output, self._host)

    def operations(self) -> tuple[int, int]:
        """(attempted, failed) operations beyond the output checks."""
        attempted = sum(e.report.units for e in self.engines)
        failed = sum(e.report.failures for e in self.engines)
        return attempted, failed

    # -- per workload -------------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> tuple[int, object]:
        raise NotImplementedError

    def checks(self, passes: list[Pass]) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def simulated(self, passes: list[Pass]) -> dict[str, float]:
        return {}

    def counters(self, passes: list[Pass]) -> dict[str, float]:
        """Per-layer counts read from the outputs rather than from spans."""
        return {}


def same_as_first(passes: list[Pass], what: str) -> list[tuple[str, bool]]:
    first = passes[0].output
    return [
        (f"{what} of pass {i} equals pass 0", p.output == first)
        for i, p in enumerate(passes[1:], start=1)
    ]


def as_recorded(figures: dict, recorded: dict) -> list[tuple[str, bool]]:
    """One check per recorded figure: the value is exactly the recorded one."""
    return [
        (f"{name} is {value!r} as recorded", figures[name] == value)
        for name, value in recorded.items()
    ]


class PaperSweep(Workload):
    name = "paper_sweep"
    op = "engine unit"
    why = "full 12-kernel headline sweep, cold then warm cache: compiler, then cache and engine"
    passes = 4  # one cold sweep: a second does not fit the time budget

    def setup(self) -> None:
        self.fresh_cache()
        self.engine_ = self.engine()
        for key in sorted(SUITE):
            SUITE[key].launch()

    def run_pass(self, index: int):
        before = self.engine_.report.units
        result = self.timed(headline, samples=2, engine=self.engine_)
        return self.engine_.report.units - before, result

    def checks(self, passes):
        cold = passes[0].output
        out = same_as_first(passes, "HeadlineResult")
        out += as_recorded(dataclasses.asdict(cold), RECORDED_HEADLINE)
        # bench_headline.py's shape bounds
        out += [
            ("context reduction in [50, 75] %", 50 <= cold.context_reduction_pct <= 75),
            ("context vs minimum in [1.0, 1.2]", 1.0 <= cold.context_vs_min <= 1.2),
            ("preempt reduction in [50, 75] %", 50 <= cold.preempt_reduction_pct <= 75),
            ("resume reduction in [40, 70] %", 40 <= cold.resume_reduction_pct <= 70),
            ("runtime overhead < 1 %", cold.overhead_pct < 1.0),
            ("CS-Defer preempts slower than CTXBack", cold.csdefer_latency_vs_ctxback > 1.0),
            ("CS-Defer resume reduction in [55, 75] %",
             55 <= cold.csdefer_resume_reduction_pct <= 75),
        ]
        return out

    def simulated(self, passes):
        cold = passes[0].output
        return {
            "sim_context_reduction_pct": cold.context_reduction_pct,
            "sim_preempt_reduction_pct": cold.preempt_reduction_pct,
            "sim_resume_reduction_pct": cold.resume_reduction_pct,
        }


#: headline core matrix: a full SM's worth of warps, twice the default loop
#: trips (4x, about 4 s a pass, leaves too few repeats in the time budget)
CORE_WARPS = 16
CORE_ITERATION_MULT = 2


class CoreMatrix(Workload):
    name = "core_matrix"
    op = "issued instruction"
    why = "bare fast core over the 12-kernel x 16-warp x 2x-iteration matrix; no compiler, no cache"
    passes = 2  # one cold, one warm, as in each child
    children = 2

    def setup(self) -> None:
        self.fresh_cache()  # compiled blocks are cached artifacts
        self.config = GPUConfig.radeon_vii()
        self.specs = [
            (
                key,
                SUITE[key]
                .launch(
                    iterations=SUITE[key].default_iterations * CORE_ITERATION_MULT,
                    num_warps=CORE_WARPS,
                )
                .spec(),
            )
            for key in sorted(SUITE)
        ]
        self.runs = 0

    def run_pass(self, index: int):
        outcome = []
        issued = 0
        for key, spec in self.specs:
            result = self.timed(gpu.run_reference, spec, self.config)
            self.runs += 1
            issued += result.sm.stats.issued
            outcome.append(
                (key, result.sm.stats.issued, result.cycles, memory_digest(result.memory))
            )
        return issued, outcome

    def operations(self):
        return self.runs, 0

    def checks(self, passes):
        out = same_as_first(passes, "per-kernel issues, cycles and memory digest")
        # the seed picks the kernel the fast core is checked on against the
        # reference core (untimed; one kernel at default loop trips)
        key = sorted(SUITE)[self.seed % len(SUITE)]
        spec = SUITE[key].launch(num_warps=CORE_WARPS).spec()
        fast = gpu.run_reference(spec, dataclasses.replace(self.config, core="fast"))
        ref = gpu.run_reference(spec, dataclasses.replace(self.config, core="reference"))
        self.runs += 2
        out += [
            (f"{key}: fast issues == reference", fast.sm.stats.issued == ref.sm.stats.issued),
            (f"{key}: fast cycles == reference", fast.cycles == ref.cycles),
            (f"{key}: fast memory digest == reference",
             memory_digest(fast.memory) == memory_digest(ref.memory)),
        ]
        return out


#: 5k requests per cell (not the 20k of benchmarks/bench_serve.py) keeps a
#: pass near 2-3 s, so that the run fits the benchmark's time budget
SERVE_KW = dict(requests=5_000, gpus=4, iterations=40)
SERVE_LOADS = (0.5, 0.8)
CHAOS_MECHANISMS = ("baseline", "ckpt", "ctxback")


def serve_cell(report: dict, mechanism: str, load: float) -> dict:
    for cell in report["results"]:
        if cell["mechanism"] == mechanism and cell["load"] == load:
            return cell
    raise KeyError((mechanism, load))


#: CTXBack's p99 at or below BASELINE's is checked at the 20k requests a
#: cell of benchmarks/bench_serve.py.  At 5k the two p99s at load 0.8 lie
#: within 0.5 % of each other, a gap the ~50 requests of the tail do not
#: resolve, and swap order on some traces (seeds 4 and 993543058).
CLAIM_REQUESTS = 20_000


@functools.lru_cache(maxsize=None)
def serve_claim(seed: int) -> tuple[tuple[float, float, float], ...]:
    """(load, CTXBack p99, BASELINE p99) at each load, at ``CLAIM_REQUESTS``
    a cell.  Untimed, and run once a process: the traced sequence, which
    follows the untraced one, does not trace it."""
    report = serve.run_serve(
        ("baseline", "ctxback"), trace=serve.TraceSpec(kind="bursty", seed=seed),
        loads=SERVE_LOADS, engine=ExperimentEngine(jobs=1),
        **{**SERVE_KW, "requests": CLAIM_REQUESTS},
    )
    return tuple(
        (
            load,
            serve_cell(report, "ctxback", load)["latency_us"]["p99"],
            serve_cell(report, "baseline", load)["latency_us"]["p99"],
        )
        for load in SERVE_LOADS
    )


class ServeFleet(Workload):
    name = "serve_fleet"
    op = "scheduled request"
    why = "plain, migrating and chaos fleet serving on the seeded trace; calibration in set-up"
    passes = 4

    def is_cold(self, index: int) -> bool:
        """Cold and warm passes alternate, starting cold: a cold pass
        simulates every shard, a warm one finds every shard in the cache."""
        return index % 2 == 0

    def setup(self) -> None:
        self.template = self.fresh_cache()
        engine = self.engine()
        config = GPUConfig.radeon_vii()
        serve.mechanism_costs(
            serve.SERVE_MECHANISMS, serve.DEFAULT_BATCH_KEY, config,
            iterations=SERVE_KW["iterations"], engine=engine,
        )
        for mechanism in serve.SERVE_MECHANISMS:
            snap_profile_for(
                serve.DEFAULT_BATCH_KEY, mechanism, config,
                iterations=SERVE_KW["iterations"], resume_gap=2000,
            )

    def cold_cache(self) -> Path:
        # a copy of the calibrated cache: calibration hits, every shard misses;
        # the warm pass after it hits every shard
        root = self._next_dir()
        shutil.copytree(self.template, root)
        self.use_cache(root)
        return root

    def run_pass(self, index: int):
        engine = self.engine()
        trace = serve.TraceSpec(kind="bursty", seed=self.seed)

        plain = self.timed(
            serve.run_serve, serve.SERVE_MECHANISMS, trace=trace, loads=SERVE_LOADS,
            engine=engine, **SERVE_KW,
        )
        migrate = self.timed(
            serve.run_serve, serve.SERVE_MECHANISMS, trace=trace, loads=(0.8,),
            migrate=True, engine=engine, **SERVE_KW,
        )
        chaos = self.timed(
            serve.run_serve_chaos, CHAOS_MECHANISMS, scenario="mixed", trace=trace,
            loads=(0.8,), engine=engine, **SERVE_KW,
        )
        reports = (plain, migrate, chaos)
        cells = len(serve.SERVE_MECHANISMS) * (len(SERVE_LOADS) + 1) + len(CHAOS_MECHANISMS)
        return cells * SERVE_KW["requests"], reports

    def checks(self, passes):
        chaos = passes[0].output[2]
        out = same_as_first(passes, "serve reports")
        out.append(("chaos-serve oracle passes", bool(chaos["oracle"]["ok"])))
        for load, ctx, base in serve_claim(self.seed):
            out.append((
                f"ctxback p99 <= baseline p99 at load {load}, {CLAIM_REQUESTS} requests a cell",
                ctx <= base,
            ))
        if self.seed in RECORDED_SERVE:
            out += as_recorded(self.simulated(passes), RECORDED_SERVE[self.seed])
        return out

    def counters(self, passes):
        cells = [cell for p in passes for cell in p.output[2]["results"]]
        return {
            "serve.shed": sum(cell["shed"] for cell in cells),
            "serve.retries": sum(cell["retries"] for cell in cells),
        }

    def simulated(self, passes):
        cell = serve_cell(passes[0].output[0], "ctxback", 0.5)
        return {
            "serve_interactive_p99_us": cell["tenants"]["interactive"]["p99_us"],
            "serve_slo_violation_rate": cell["slo_violation_rate"],
        }


#: km under baseline (3.6 s a pass, as much as the other three cells
#: together) and mm (15 s) do not fit the time budget
MC_CELLS = (("va", "baseline"), ("va", "ctxback"), ("km", "ctxback"))


class McCheck(Workload):
    name = "mc_check"
    op = "explored transition"
    why = "bounded model checking of va/baseline, va/ctxback, km/ctxback: replay, digests, explorer"
    passes = 3
    children = 1

    def setup(self) -> None:
        self.fresh_cache()
        self.config = GPUConfig.small(4)
        self.options = mc.McOptions(warps=2, rounds=1)
        self.cells = []
        for key, mechanism in MC_CELLS:
            launch = SUITE[key].launch(
                warp_size=self.config.warp_size, iterations=2, num_warps=self.options.warps
            )
            prepared = make_mechanism(mechanism).prepare(launch.kernel, self.config)
            self.cells.append((key, mechanism, prepared, launch.spec()))
        self.explored = 0

    def _cell(self, key, mechanism, prepared, spec):
        reference = mc.clean_reference(prepared, spec, self.config)

        def factory():
            return mc.McModel(
                prepared, spec, self.config, self.options, kernel=key, mechanism=mechanism
            )

        return mc.explore(factory, reference, self.options, kernel=key, mechanism=mechanism)

    def run_pass(self, index: int):
        outcome = []
        transitions = 0
        for key, mechanism, prepared, spec in self.cells:
            result = self.timed(self._cell, key, mechanism, prepared, spec)
            self.explored += 1
            transitions += result.transitions
            outcome.append(
                (key, mechanism, result.ok, result.truncated, result.reachable_digest)
            )
        return transitions, outcome

    def operations(self):
        return self.explored, 0

    def checks(self, passes):
        out = same_as_first(passes, "verdicts and reachable digests")
        for key, mechanism, ok, truncated, _digest in passes[0].output:
            out.append((f"{key}/{mechanism}: verdict ok", ok))
            out.append((f"{key}/{mechanism}: not truncated", not truncated))
        return out


WORKLOADS = {w.name: w for w in (PaperSweep, CoreMatrix, ServeFleet, McCheck)}
