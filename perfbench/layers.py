"""Which calls of the program the traced run wraps, and the per-layer
metrics derived from the spans and counters they record.

Span names follow the program's modules: ``mechanisms``, ``ctxback``,
``compiler``, ``kernels``, ``sim``, ``cache`` (``repro.analysis.cache``),
``engine`` (``repro.analysis.engine``), ``serve``, ``snap`` and ``mc``.
"""

from __future__ import annotations

import sys

from spans import Patcher, Recorder, calls_by_name, inclusive_by_name

PACKAGE = "repro"

#: the six mechanisms of the paper's evaluation
MECHANISMS = ("baseline", "live", "ckpt", "csdefer", "ctxback", "combined")


# -- counters taken from arguments and results ---------------------------------


def _count_run(counts, args, kwargs, result) -> None:
    counts["sim.issued"] += result.sm.stats.issued
    counts["sim.cycles"] += result.cycles


def _count_requests(key: str):
    def count(counts, args, kwargs, result) -> None:
        requests = args[0] if args else kwargs["requests"]
        counts[key] += len(requests)

    return count


def _count_snapshot(counts, args, kwargs, result) -> None:
    mechanism = args[1] if len(args) > 1 else kwargs["mechanism"]
    counts[f"snap.snapshot_bytes.{mechanism}"] = result["snapshot_bytes"]


def _count_explore(counts, args, kwargs, result) -> None:
    for field in ("states", "transitions", "runs", "pruned"):
        counts[f"mc.{field}"] += getattr(result, field)


def install(recorder: Recorder) -> Patcher:
    """Wrap every traced call; the caller must ``restore()`` the patcher."""
    import repro.analysis.cache as cache_mod
    import repro.analysis.engine as engine_mod
    import repro.ctxback.flashback as flashback
    import repro.mc  # noqa: F401  (explore / clean_reference bindings)
    import repro.serve  # noqa: F401
    import repro.snap.units  # noqa: F401
    from repro.kernels import SUITE
    from repro.mechanisms import ALL_MECHANISMS

    patcher = Patcher(recorder, PACKAGE)
    try:
        for name in MECHANISMS:
            patcher.method(ALL_MECHANISMS[name], "prepare", f"mechanisms.prepare.{name}")
        analyzer = flashback.FlashbackAnalyzer
        patcher.method(analyzer, "plan_all", "ctxback.plan_all")
        patcher.method(analyzer, "plan_at", "ctxback.plan_at")
        patcher.method(analyzer, "build_plan_at", "ctxback.build_plan_at")
        for module, attr, name, after in (
            ("repro.ctxback.osrb", "apply_osrb", "ctxback.osrb", None),
            ("repro.ctxback.sharing", "share_routines", "ctxback.share_routines", None),
            ("repro.compiler.liveness", "analyze_liveness", "compiler.liveness", None),
            ("repro.sim.gpu", "run_reference", "sim.run_reference", _count_run),
            ("repro.sim.gpu", "run_preemption_experiment", "sim.experiment", None),
            ("repro.sim.digest", "state_digest", "sim.digest", None),
            ("repro.serve.fleet", "shard_arrivals", "serve.arrivals", None),
            # the cached shard wrappers: their self time is cache keying of
            # the shard content, which would otherwise show as unit time
            ("repro.serve.fleet", "serve_shard_profile", "serve.shard_profile", None),
            ("repro.serve.resilience", "resilient_shard_profile", "serve.shard_profile", None),
            ("repro.serve.scheduler", "simulate_shard", "serve.shard",
             _count_requests("serve.shard_requests")),
            ("repro.serve.resilience", "simulate_resilient_shard", "serve.resilient_shard",
             _count_requests("serve.resilient_requests")),
            ("repro.serve.resilience", "plan_resilience", "serve.plan_resilience", None),
            ("repro.serve.migration", "plan_migrations", "serve.plan_migrations", None),
            ("repro.serve.report", "summarize_cell", "serve.summarize", None),
            ("repro.serve.report", "summarize_chaos_cell", "serve.summarize", None),
            ("repro.snap.units", "snap_profile_for", "snap.roundtrip", _count_snapshot),
            ("repro.mc.explorer", "explore", "mc.explore", _count_explore),
            ("repro.mc.model", "clean_reference", "mc.clean_reference", None),
        ):
            patcher.function(module, attr, name, after)
        patcher.method(cache_mod.ArtifactCache, "key_for", "cache.key")
        patcher.method(cache_mod.ArtifactCache, "get", "cache.get")
        patcher.method(cache_mod.ArtifactCache, "put", "cache.put")
        patcher.method(cache_mod.ArtifactCache, "decode_entry", "cache.decode")
        patcher.method(engine_mod.ExperimentEngine, "map", "engine.map")
        for cls in _unit_classes():
            patcher.method(cls, "run", "engine.unit")
        for bench in SUITE.values():
            patcher.attribute(bench, "launch", "kernels.launch")
    except BaseException:
        patcher.restore()
        raise
    return patcher


def _unit_classes() -> list[type]:
    """Every engine work-unit class the program defines (``*Unit`` with a
    ``run`` method), so unit time can be told apart from dispatch time."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(PACKAGE + "."):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == name
                and value.__name__.endswith("Unit")
                and "run" in vars(value)
            ):
                found.append(value)
    return found


# -- the per-layer metric table --------------------------------------------------

#: (name, unit, better) for every per-layer metric, in BENCHMARK.json order
PER_LAYER: list[tuple[str, str, str]] = [
    *[(f"mechanisms.prepare_s.{m}", "s", "lower") for m in MECHANISMS],
    *[(f"mechanisms.prepare_calls.{m}", "count", "lower") for m in MECHANISMS],
    ("ctxback.plan_all_s", "s", "lower"),
    ("ctxback.plan_all_calls", "count", "lower"),
    ("ctxback.build_plan_calls", "count", "lower"),
    ("ctxback.positions", "count", "lower"),
    ("ctxback.plan_yield", "ratio", "higher"),
    ("ctxback.osrb_s", "s", "lower"),
    ("ctxback.share_routines_s", "s", "lower"),
    ("compiler.liveness_s", "s", "lower"),
    ("kernels.launch_s", "s", "lower"),
    ("kernels.launch_calls", "count", "lower"),
    ("sim.run_reference_s", "s", "lower"),
    ("sim.experiment_s", "s", "lower"),
    ("sim.experiment_calls", "count", "lower"),
    ("sim.issued", "count", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("sim.digest_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.hit_rate", "fraction", "higher"),
    ("cache.key_s", "s", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.decode_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.bytes_on_disk", "bytes", "lower"),
    ("engine.units", "count", "lower"),
    ("engine.map_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    ("engine.retries", "count", "lower"),
    ("engine.failures", "count", "lower"),
    ("serve.arrivals_s", "s", "lower"),
    ("serve.shard_profile_s", "s", "lower"),
    ("serve.shard_s", "s", "lower"),
    ("serve.shard_requests", "count", "higher"),
    ("serve.resilient_shard_s", "s", "lower"),
    ("serve.resilient_requests", "count", "higher"),
    ("serve.plan_resilience_s", "s", "lower"),
    ("serve.plan_migrations_s", "s", "lower"),
    ("serve.summarize_s", "s", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("snap.roundtrip_s", "s", "lower"),
    *[(f"snap.snapshot_bytes.{m}", "bytes", "lower") for m in MECHANISMS],
    ("mc.explore_s", "s", "lower"),
    ("mc.clean_reference_s", "s", "lower"),
    ("mc.states", "count", "higher"),
    ("mc.transitions", "count", "lower"),
    ("mc.runs", "count", "lower"),
    ("mc.pruned", "count", "higher"),
    ("mc.transitions_per_state", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_cold_pct", "%", "higher"),
    ("trace.coverage_warm_pct", "%", "higher"),
    ("failed_frac", "fraction", "lower"),
    # simulated time: deterministic, must stay exactly unchanged by perf work
    ("sim_context_reduction_pct", "%", "higher"),
    ("sim_preempt_reduction_pct", "%", "higher"),
    ("sim_resume_reduction_pct", "%", "higher"),
    ("serve_interactive_p99_us", "sim_us", "lower"),
    ("serve_slo_violation_rate", "fraction", "lower"),
]

#: span name behind each ``*_s`` / ``*_calls`` metric
_TIMED = {
    **{f"mechanisms.prepare_s.{m}": f"mechanisms.prepare.{m}" for m in MECHANISMS},
    "ctxback.plan_all_s": "ctxback.plan_all",
    "ctxback.osrb_s": "ctxback.osrb",
    "ctxback.share_routines_s": "ctxback.share_routines",
    "compiler.liveness_s": "compiler.liveness",
    "kernels.launch_s": "kernels.launch",
    "sim.run_reference_s": "sim.run_reference",
    "sim.experiment_s": "sim.experiment",
    "sim.digest_s": "sim.digest",
    "cache.key_s": "cache.key",
    "cache.get_s": "cache.get",
    "cache.decode_s": "cache.decode",
    "cache.put_s": "cache.put",
    "engine.map_s": "engine.map",
    "serve.arrivals_s": "serve.arrivals",
    "serve.shard_profile_s": "serve.shard_profile",
    "serve.shard_s": "serve.shard",
    "serve.resilient_shard_s": "serve.resilient_shard",
    "serve.plan_resilience_s": "serve.plan_resilience",
    "serve.plan_migrations_s": "serve.plan_migrations",
    "serve.summarize_s": "serve.summarize",
    "snap.roundtrip_s": "snap.roundtrip",
    "mc.explore_s": "mc.explore",
    "mc.clean_reference_s": "mc.clean_reference",
}
_CALLS = {
    **{f"mechanisms.prepare_calls.{m}": f"mechanisms.prepare.{m}" for m in MECHANISMS},
    "ctxback.plan_all_calls": "ctxback.plan_all",
    "ctxback.build_plan_calls": "ctxback.build_plan_at",
    "ctxback.positions": "ctxback.plan_at",
    "kernels.launch_calls": "kernels.launch",
    "sim.experiment_calls": "sim.experiment",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    *extra* carries what the program counts itself (engine units,
    retries and failures, cache hits, misses and stores, cache bytes on
    disk), trace overhead and coverage, the failed share and the simulated
    figures.  A layer the workload never called reads 0.
    """
    inclusive = inclusive_by_name(recorder.spans)
    calls = calls_by_name(recorder.spans)
    counts = recorder.counts
    values: dict[str, float] = {}
    for name, span in _TIMED.items():
        values[name] = inclusive.get(span, 0.0)
    for name, span in _CALLS.items():
        values[name] = calls.get(span, 0)
    for name, _unit, _better in PER_LAYER:
        if name not in values and name in counts:
            values[name] = counts[name]
    values.update(extra)
    values["ctxback.plan_yield"] = _ratio(
        values["ctxback.positions"], values["ctxback.build_plan_calls"]
    )
    values["cache.hit_rate"] = _ratio(
        values["cache.hits"], values["cache.hits"] + values["cache.misses"]
    )
    values["engine.dispatch_s"] = inclusive.get("engine.map", 0.0) - inclusive.get(
        "engine.unit", 0.0
    )
    values["mc.transitions_per_state"] = _ratio(counts["mc.transitions"], counts["mc.states"])
    return {name: values.get(name, 0) for name, _unit, _better in PER_LAYER}
