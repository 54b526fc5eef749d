"""Engine + artifact cache: keys, determinism, serial/parallel equivalence.

Covers the regression that motivated the content-addressed keys: the old
per-process dicts keyed prepared kernels and weights on ``config.warp_size``
only, so ``radeon_vii`` and ``radeon_vii_contended`` (same warp size,
different memory model) aliased to one entry.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import pickle
from dataclasses import dataclass

import pytest

from repro.analysis.cache import (
    ArtifactCache,
    canonical,
    configure_cache,
    get_cache,
)
from repro.analysis.engine import (
    ExperimentEngine,
    prepared_for,
    prepared_parts,
    reference_cycles_for,
    resolve_jobs,
    weights_for,
)
import repro.analysis.engine as engine_module
from repro.analysis.experiments import fig7_context_size, headline, preemption_timing
from repro.isa.registers import RegisterFileSpec
from repro.sim.config import GPUConfig


@contextlib.contextmanager
def cache_at(root):
    """Temporarily repoint the singleton cache (restored afterwards)."""
    previous = get_cache()
    try:
        yield configure_cache(root=root, enabled=True)
    finally:
        configure_cache(root=previous.root, enabled=previous.enabled)


# -- canonical content description ---------------------------------------------


class Color(enum.Enum):
    RED = 1


@dataclass
class Point:
    x: int
    y: int


def test_canonical_dataclass_enum_and_ordering():
    assert canonical(Point(1, 2)) == {"x": 1, "y": 2}
    assert canonical(Color.RED) == "Color.RED"
    assert canonical({"b": 2, "a": 1}) == {"a": 1, "b": 2}
    assert canonical((1, [2, 3])) == [1, [2, 3]]
    with pytest.raises(TypeError):
        canonical(object())


def test_gpu_configs_with_same_warp_size_get_distinct_keys():
    cache = ArtifactCache(enabled=False)
    vii = GPUConfig.radeon_vii()
    contended = GPUConfig.radeon_vii_contended()
    assert vii.warp_size == contended.warp_size  # the old keys' blind spot
    parts_a = {"config": canonical(vii)}
    parts_b = {"config": canonical(contended)}
    assert cache.key_for("prepared", parts_a) != cache.key_for("prepared", parts_b)


# -- the aliasing regression (satellite of the engine work) --------------------


def test_no_aliasing_between_radeon_vii_and_contended(tmp_path):
    """radeon_vii vs radeon_vii_contended share a warp size but must not
    share run-dependent cache entries: their weights and reference
    profiles genuinely differ.  The prepared kernel is the exception —
    compiling reads only the register-file spec, which the presets share,
    so both resolve to one ``prepared`` entry."""
    vii = GPUConfig.radeon_vii()
    contended = GPUConfig.radeon_vii_contended()
    with cache_at(tmp_path) as cache:
        weights_for("ge", vii)
        weights_for("ge", contended)
        prepared_for("ge", "ctxback", vii)
        prepared_for("ge", "ctxback", contended)
        inventory = cache.entries()
        assert inventory["weights"]["entries"] == 2
        assert inventory["prepared"]["entries"] == 1
        clean_vii = reference_cycles_for("ge", vii)
        clean_contended = reference_cycles_for("ge", contended)
        assert cache.entries()["reference"]["entries"] == 2
    # the two presets time memory differently — one aliased entry would
    # have returned the same cycles for both
    assert clean_vii != clean_contended


#: a distinct, still-valid replacement value for every RegisterFileSpec
#: field; the coverage assertion fails when the spec grows a field
_RF_SPEC_VARIANTS = {
    "warp_size": 32,
    "vgpr_bytes_per_sm": 128 * 1024,
    "sgpr_bytes_per_sm": 8 * 1024,
    "lds_bytes_per_sm": 32 * 1024,
    "vgpr_align": 8,
    "sgpr_align": 8,
}


def test_prepared_key_covers_exactly_the_rf_spec():
    """The ``prepared`` key changes with every ``rf_spec`` field and with
    no other ``GPUConfig`` field: compiling reads the register-file spec
    only, so anything else in the key would recompile for nothing, and
    anything missing from it would alias two different compilations."""
    from tests.test_fastcore_equiv import _FIELD_VARIANTS

    spec_fields = {f.name for f in dataclasses.fields(RegisterFileSpec)}
    assert spec_fields == set(_RF_SPEC_VARIANTS), (
        "RegisterFileSpec changed: update _RF_SPEC_VARIANTS for "
        f"{sorted(spec_fields ^ set(_RF_SPEC_VARIANTS))}"
    )
    cache = ArtifactCache(enabled=False)
    base = GPUConfig.radeon_vii()

    def key(config):
        return cache.key_for("prepared", prepared_parts("mm", "ctxback", config))

    base_key = key(base)
    for name, variant in _FIELD_VARIANTS.items():
        if name == "rf_spec":
            continue
        flipped = dataclasses.replace(base, **{name: variant})
        assert key(flipped) == base_key, (
            f"flipping GPUConfig.{name} changed the prepared cache key"
        )
    for name, variant in _RF_SPEC_VARIANTS.items():
        spec = dataclasses.replace(base.rf_spec, **{name: variant})
        assert getattr(spec, name) != getattr(base.rf_spec, name), name
        flipped = dataclasses.replace(base, rf_spec=spec)
        assert key(flipped) != base_key, (
            f"flipping RegisterFileSpec.{name} did not change the prepared key"
        )


# -- store behavior -------------------------------------------------------------


def test_get_or_create_computes_once_and_persists(tmp_path):
    calls = []

    def factory():
        calls.append(1)
        return {"value": 42}

    cache = ArtifactCache(root=tmp_path, enabled=True)
    parts = {"k": "v"}
    assert cache.get_or_create("test", parts, factory) == {"value": 42}
    assert cache.get_or_create("test", parts, factory) == {"value": 42}
    assert len(calls) == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    # a fresh instance (new process) hits the disk entry
    fresh = ArtifactCache(root=tmp_path, enabled=True)
    assert fresh.get_or_create("test", parts, factory) == {"value": 42}
    assert len(calls) == 1
    assert fresh.stats.hits == 1


def test_corrupt_entry_is_invalidated_and_recomputed(tmp_path):
    cache = ArtifactCache(root=tmp_path, enabled=True)
    digest = cache.key_for("test", {"k": 1})
    cache.put("test", digest, "good")
    path = tmp_path / "test" / f"{digest}.pkl"
    path.write_bytes(b"not a pickle")
    fresh = ArtifactCache(root=tmp_path, enabled=True)
    hit, _ = fresh.get("test", digest)
    assert not hit
    assert fresh.stats.invalidations == 1
    assert not path.exists()


def test_disabled_cache_still_dedups_in_memory(tmp_path):
    calls = []
    cache = ArtifactCache(root=tmp_path, enabled=False)
    cache.get_or_create("test", {"k": 1}, lambda: calls.append(1) or "x")
    cache.get_or_create("test", {"k": 1}, lambda: calls.append(1) or "x")
    assert len(calls) == 1
    assert not (tmp_path / "test").exists()


def test_clear_empties_the_store(tmp_path):
    cache = ArtifactCache(root=tmp_path, enabled=True)
    cache.put("test", cache.key_for("test", {"k": 1}), "a")
    cache.put("other", cache.key_for("other", {"k": 2}), "b")
    assert cache.clear() == 2
    assert cache.entries() == {"other": {"entries": 0, "bytes": 0},
                               "test": {"entries": 0, "bytes": 0}}


def test_prepared_kernels_pickle_without_sim_tables(tmp_path):
    """Simulating attaches per-program issue tables (with lambdas) to the
    Program; pickling for the cache must strip them."""
    config = GPUConfig.radeon_vii()
    with cache_at(tmp_path):
        weights_for("ge", config)  # runs a simulation → tables attached
        prepared = prepared_for("ge", "ctxback", config)
    blob = pickle.dumps(prepared)
    clone = pickle.loads(blob)
    assert "_sim_tables" not in clone.kernel.program.__dict__


@pytest.mark.parametrize("mechanism", ["ctxback", "ckpt"])
def test_running_a_prepared_kernel_leaves_it_picklable(mechanism):
    """A run memoizes compiled plans on the programs it executes and
    needs a warp initializer for CKPT restarts; neither may stay behind
    on the prepared kernel, which the cache shares and pickles."""
    from repro.kernels.suite import SUITE
    from repro.mechanisms import make_mechanism
    from repro.sim.gpu import run_preemption_experiment
    from tests.test_prepared_digest import prepared_digest

    config = GPUConfig.radeon_vii()
    launch = SUITE["va"].launch(warp_size=config.warp_size, iterations=4)
    prepared = make_mechanism(mechanism).prepare(launch.kernel, config)
    before = pickle.dumps(prepared)
    digest = prepared_digest(prepared)
    for core in ("fast", "reference"):
        result = run_preemption_experiment(
            launch.spec(),
            prepared,
            dataclasses.replace(config, core=core),
            signal_dyn=9,
            resume_gap=200,
        )
        assert result.verified
    assert pickle.dumps(prepared) == before
    assert prepared_digest(pickle.loads(before)) == digest


# -- jobs resolution -------------------------------------------------------------


def test_resolve_jobs_env_and_arguments(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) == 1
    monkeypatch.setenv("REPRO_JOBS", "8")
    assert resolve_jobs(None) == 8
    assert resolve_jobs(2) == 2
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    assert resolve_jobs(None) == 1


# -- serial vs parallel vs warm equivalence --------------------------------------


def _figure_rows(fig):
    return [(row.key, row.baseline_value, dict(row.normalized)) for row in fig.rows]


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """fig7 + fig8/fig9 rows from a cold serial run (the ground truth)."""
    root = tmp_path_factory.mktemp("cache-serial")
    with cache_at(root):
        fig7 = fig7_context_size(keys=["ge"], engine=ExperimentEngine(1))
        fig8, fig9 = preemption_timing(
            keys=["ge"], samples=2, engine=ExperimentEngine(1)
        )
    return _figure_rows(fig7), _figure_rows(fig8), _figure_rows(fig9)


@pytest.mark.parametrize("jobs", [1, 4])
def test_parallel_runs_are_bit_identical_to_serial(
    serial_reference, tmp_path, jobs
):
    with cache_at(tmp_path):
        fig7 = fig7_context_size(keys=["ge"], engine=ExperimentEngine(jobs))
        fig8, fig9 = preemption_timing(
            keys=["ge"], samples=2, engine=ExperimentEngine(jobs)
        )
    assert (
        _figure_rows(fig7),
        _figure_rows(fig8),
        _figure_rows(fig9),
    ) == serial_reference


def test_warm_cache_run_is_bit_identical(serial_reference, tmp_path):
    with cache_at(tmp_path):
        fig7_context_size(keys=["ge"], engine=ExperimentEngine(1))
        preemption_timing(keys=["ge"], samples=2, engine=ExperimentEngine(1))
    # fresh in-memory layer over the same on-disk store: pure cache loads
    with cache_at(tmp_path) as cache:
        engine = ExperimentEngine(1)
        fig7 = fig7_context_size(keys=["ge"], engine=engine)
        fig8, fig9 = preemption_timing(keys=["ge"], samples=2, engine=engine)
        assert cache.stats.misses == 0
        assert cache.stats.hits > 0
    assert (
        _figure_rows(fig7),
        _figure_rows(fig8),
        _figure_rows(fig9),
    ) == serial_reference


def test_warm_headline_pass_builds_no_launch(tmp_path, monkeypatch):
    """On a warm cache the artifact accessors key every entry on the
    memoized kernel description; none of them (``weights_for`` included)
    builds a launch."""
    launches = []
    original = engine_module._launch

    def counting_launch(*args):
        launches.append(args)
        return original(*args)

    monkeypatch.setattr(engine_module, "_launch", counting_launch)
    with cache_at(tmp_path):
        cold = headline(keys=["ge"], samples=1, engine=ExperimentEngine(1))
    assert launches  # the cold pass did build launches through the spy
    launches.clear()
    with cache_at(tmp_path) as cache:
        warm = headline(keys=["ge"], samples=1, engine=ExperimentEngine(1))
        assert cache.stats.misses == 0
    assert launches == []
    assert warm == cold


def test_engine_report_accumulates(tmp_path):
    with cache_at(tmp_path):
        engine = ExperimentEngine(1)
        fig7_context_size(keys=["ge"], engine=engine)
        report = engine.report
    assert report.jobs == 1
    assert report.waves == 2  # weights wave + context wave
    assert report.units == 1 + 5  # 1 kernel × (1 weights + 5 mechanisms)
    assert report.wall_s > 0
    assert report.cache["misses"] > 0


# -- scoreboard prune threshold (hoisted magic number) ---------------------------


def test_scoreboard_prune_threshold_is_configurable_and_neutral():
    """The threshold only bounds scoreboard size — pruning removes completed
    writes, so any value must leave measured cycles unchanged."""
    from dataclasses import replace

    from repro.kernels.suite import SUITE
    from repro.sim.gpu import run_reference

    config = GPUConfig.radeon_vii()
    assert config.scoreboard_prune_threshold == 64
    eager = replace(config, scoreboard_prune_threshold=0)
    launch = SUITE["ge"].launch(
        warp_size=config.warp_size, iterations=SUITE["ge"].default_iterations
    )
    assert (
        run_reference(launch.spec(), config).cycles
        == run_reference(launch.spec(), eager).cycles
    )


# -- entry integrity: footer, truncation, bit flips ------------------------------


def test_entry_footer_roundtrip_and_layout():
    blob = ArtifactCache.encode_entry({"a": 1})
    assert blob[-36:-32] == b"RCK2"
    import hashlib

    assert hashlib.sha256(blob[:-36]).digest() == blob[-32:]
    assert ArtifactCache.decode_entry(blob) == {"a": 1}


def test_truncated_entry_is_invalidated_and_recomputed(tmp_path):
    cache = ArtifactCache(root=tmp_path, enabled=True)
    digest = cache.key_for("test", {"k": 1})
    cache.put("test", digest, "x" * 1000)
    path = tmp_path / "test" / f"{digest}.pkl"
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])  # lost the tail (and footer)
    fresh = ArtifactCache(root=tmp_path, enabled=True)
    assert fresh.get_or_create("test", {"k": 1}, lambda: "recomputed") == "recomputed"
    assert fresh.stats.invalidations == 1
    assert fresh.stats.stores == 1
    # the healthy entry was re-stored and now round-trips
    assert ArtifactCache(root=tmp_path, enabled=True).get("test", digest) == (
        True,
        "recomputed",
    )


def test_bit_flip_is_caught_by_the_checksum(tmp_path):
    """A single flipped byte mid-payload still unpickles fine — only the
    checksum footer can catch it."""
    cache = ArtifactCache(root=tmp_path, enabled=True)
    digest = cache.key_for("test", {"k": 1})
    cache.put("test", digest, b"A" * 1000)
    path = tmp_path / "test" / f"{digest}.pkl"
    blob = bytearray(path.read_bytes())
    blob[500] ^= 0xFF  # inside the pickled bytes body: pickle.loads succeeds
    with pytest.raises(ValueError, match="checksum mismatch"):
        ArtifactCache.decode_entry(bytes(blob))
    path.write_bytes(bytes(blob))
    fresh = ArtifactCache(root=tmp_path, enabled=True)
    hit, _ = fresh.get("test", digest)
    assert not hit
    assert fresh.stats.invalidations == 1
    assert not path.exists()


def test_legacy_footerless_entry_is_invalidated(tmp_path):
    cache = ArtifactCache(root=tmp_path, enabled=True)
    digest = cache.key_for("test", {"k": 1})
    path = tmp_path / "test" / f"{digest}.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps("schema-1 entry"))  # valid pickle, no footer
    hit, _ = cache.get("test", digest)
    assert not hit
    assert cache.stats.invalidations == 1
    assert not path.exists()


def test_schema_4_entries_are_never_hit(tmp_path, monkeypatch):
    """Schema 5 changed how ``Reg`` pickles, so a schema-4 artifact would
    unpickle registers without their hash.  Its entries keep their old
    digests: the current code recomputes instead of reading them."""
    import repro.analysis.cache as cache_module

    parts = prepared_parts("ge", "ctxback", GPUConfig.radeon_vii())
    monkeypatch.setattr(cache_module, "SCHEMA_VERSION", 4)
    old = ArtifactCache(root=tmp_path, enabled=True)
    old_digest = old.key_for("prepared", parts)
    old.put("prepared", old_digest, "schema-4 artifact")
    monkeypatch.undo()
    fresh = ArtifactCache(root=tmp_path, enabled=True)
    assert fresh.key_for("prepared", parts) != old_digest
    assert fresh.get_or_create("prepared", parts, lambda: "rebuilt") == "rebuilt"
    assert fresh.stats.hits == 0 and fresh.stats.misses == 1


# -- size cap / LRU eviction -----------------------------------------------------


def test_eviction_is_lru_by_mtime_and_hits_refresh_recency(tmp_path):
    import os

    cache = ArtifactCache(root=tmp_path, enabled=True, max_bytes=0)
    digests = [cache.key_for("test", {"k": i}) for i in range(3)]
    for i, digest in enumerate(digests):
        cache.put("test", digest, b"x" * 4096)
    paths = [tmp_path / "test" / f"{d}.pkl" for d in digests]
    entry_size = paths[0].stat().st_size
    for i, path in enumerate(paths):  # entry 0 oldest, entry 2 newest
        os.utime(path, (1_000_000 + i, 1_000_000 + i))
    # a hit refreshes entry 0's mtime, so entry 1 becomes the LRU victim
    fresh = ArtifactCache(root=tmp_path, enabled=True, max_bytes=2 * entry_size)
    assert fresh.get("test", digests[0])[0]
    assert fresh.evict_to_cap() == 1
    assert fresh.stats.evictions == 1
    assert paths[0].exists() and paths[2].exists()
    assert not paths[1].exists()
    # a store over the cap evicts automatically (put → evict_to_cap)
    fresh.put("test", fresh.key_for("test", {"k": 99}), b"y" * 4096)
    assert fresh.stats.evictions == 2
    assert sum(p.stat().st_size for p in (tmp_path / "test").glob("*.pkl")) <= (
        2 * entry_size + 64
    )


def test_no_cap_means_no_eviction(tmp_path):
    cache = ArtifactCache(root=tmp_path, enabled=True, max_bytes=0)
    for i in range(5):
        cache.put("test", cache.key_for("test", {"k": i}), b"x" * 4096)
    assert cache.evict_to_cap() == 0
    assert cache.stats.evictions == 0


# -- cumulative stats merging ----------------------------------------------------


def test_flush_stats_merges_and_resets(tmp_path):
    a = ArtifactCache(root=tmp_path, enabled=True)
    b = ArtifactCache(root=tmp_path, enabled=True)
    a.stats.hits, a.stats.misses = 3, 1
    b.stats.hits, b.stats.evictions = 2, 5
    a.flush_stats()
    b.flush_stats()
    totals = a.persisted_stats()
    assert totals["hits"] == 5
    assert totals["misses"] == 1
    assert totals["evictions"] == 5
    a.flush_stats()  # counters were reset: flushing again changes nothing
    assert a.persisted_stats() == totals


# -- configure_cache / atexit lifecycle (the stale-hook regression) --------------


def test_configure_cache_reregisters_atexit_hook(tmp_path, monkeypatch):
    """Reconfiguring must unregister the replaced cache's atexit hook and
    register the new one; before the fix the stale hook flushed a dead
    cache at exit while the live cache's counters were silently dropped."""
    import repro.analysis.cache as cache_mod

    registered, unregistered = [], []

    class FakeAtexit:
        @staticmethod
        def register(fn):
            registered.append(fn)
            return fn

        @staticmethod
        def unregister(fn):
            unregistered.append(fn)

    previous = get_cache()
    monkeypatch.setattr(cache_mod, "atexit", FakeAtexit)
    try:
        first = configure_cache(root=tmp_path / "a", enabled=True)
        assert registered[-1] == first.flush_stats
        assert unregistered[-1] == previous.flush_stats
        second = configure_cache(root=tmp_path / "b", enabled=True)
        assert unregistered[-1] == first.flush_stats
        assert registered[-1] == second.flush_stats
    finally:
        monkeypatch.undo()
        configure_cache(root=previous.root, enabled=previous.enabled)


def test_configure_cache_flushes_replaced_counters(tmp_path):
    import json

    previous = get_cache()
    try:
        cache = configure_cache(root=tmp_path, enabled=True)
        cache.get_or_create("test", {"k": 1}, lambda: "v")  # 1 miss + 1 store
        configure_cache(root=previous.root, enabled=previous.enabled)
        totals = json.loads((tmp_path / "stats.json").read_text())
        assert totals["misses"] == 1 and totals["stores"] == 1
    finally:
        configure_cache(root=previous.root, enabled=previous.enabled)


def test_configure_cache_can_skip_the_flush(tmp_path):
    """Engine workers reconfigure with flush_previous=False — the forked
    parent's counters must not leak into stats.json from every worker."""
    previous = get_cache()
    try:
        cache = configure_cache(root=tmp_path, enabled=True)
        cache.get_or_create("test", {"k": 1}, lambda: "v")
        configure_cache(
            root=previous.root, enabled=previous.enabled, flush_previous=False
        )
        assert not (tmp_path / "stats.json").exists()
    finally:
        configure_cache(root=previous.root, enabled=previous.enabled)


# -- falsy-zero iterations default (satellite regression) ------------------------


def test_explicit_zero_iterations_is_not_replaced_by_the_default():
    from repro.analysis.engine import _resolved_iterations
    from repro.kernels.suite import SUITE

    assert _resolved_iterations("ge", None) == SUITE["ge"].default_iterations
    assert SUITE["ge"].default_iterations != 0
    assert _resolved_iterations("ge", 0) == 0  # the old `or` default lost this
