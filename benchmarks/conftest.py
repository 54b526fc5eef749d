"""Benchmark-suite configuration.

Environment knobs:

* ``REPRO_BENCH_KEYS``  — comma-separated benchmark subset (default: all 12);
* ``REPRO_BENCH_SAMPLES`` — signal points per kernel for the timing sweeps
  (default 3; the paper effectively averages over arbitrary signal points);
* ``REPRO_JOBS``        — worker processes for the experiment engine
  (default 1: serial, in-process);
* ``REPRO_UNIT_TIMEOUT``/``REPRO_UNIT_RETRIES``/``REPRO_FAILURE_POLICY`` —
  engine fault tolerance: per-unit timeout seconds, pool re-attempts, and
  ``fail-fast`` vs ``collect`` (see :mod:`repro.analysis.engine`);
* ``REPRO_CACHE_DIR``/``REPRO_CACHE``/``REPRO_CACHE_MAX_BYTES`` —
  artifact-cache location / kill switch / LRU size cap (see
  :mod:`repro.analysis.cache`).

Every bench prints the regenerated table (run with ``-s`` to see it inline)
and asserts the paper's *shape*: who wins and by roughly what factor.

Each bench's wall time, engine worker count, kernel subset, sample count
and cache hit/miss delta are recorded and merged into ``BENCH_engine.json``
in the repo root at session end, one row per bench name: a run replaces the
rows of the benches it ran and keeps all others, so the file accumulates a
trajectory across runs of different subsets (see the CI smoke job and
``benchmarks/engine_smoke.py`` for cold-vs-warm comparisons).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

BENCH_REPORT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

_records: list[dict] = []


def bench_keys() -> list[str] | None:
    raw = os.environ.get("REPRO_BENCH_KEYS", "").strip()
    if not raw:
        return None  # all benchmarks
    return [key.strip() for key in raw.split(",") if key.strip()]


def bench_samples() -> int:
    return int(os.environ.get("REPRO_BENCH_SAMPLES", "3"))


@pytest.fixture(scope="session")
def keys():
    return bench_keys()


@pytest.fixture(scope="session")
def samples():
    return bench_samples()


@pytest.fixture(autouse=True)
def _engine_timing(request):
    """Record wall time + artifact-cache traffic for every bench."""
    from repro.analysis import default_jobs, get_cache

    cache = get_cache()
    before = cache.stats.snapshot()
    started = time.perf_counter()
    yield
    wall = time.perf_counter() - started
    delta = cache.stats.delta(before)
    record = {
        "bench": request.node.name,
        "wall_s": round(wall, 3),
        "jobs": default_jobs(),
        "keys": bench_keys(),
        "samples": bench_samples(),
        "cache": delta.as_dict(),
    }
    # benches may attach structured results (e.g. the core-comparison
    # numbers from bench_cores.py) via the ``record_result`` fixture
    record.update(getattr(request.node, "_bench_payload", {}))
    _records.append(record)


@pytest.fixture
def record_result(request):
    """Attach extra key/value pairs to this bench's BENCH_engine.json row."""
    payload: dict = {}
    request.node._bench_payload = payload

    def _record(**fields) -> None:
        payload.update(fields)

    return _record


def merge_report(existing: dict | None, records: list[dict]) -> dict:
    """Fold this session's bench rows into the existing report.

    Rows merge by bench name: a bench that ran replaces its old row, every
    other row is kept, so a subset run never erases the trajectory the
    other benches recorded.  The totals cover the merged rows.
    """
    rows = {row["bench"]: row for row in (existing or {}).get("benches", [])}
    rows.update((row["bench"], row) for row in records)
    benches = [rows[name] for name in sorted(rows)]
    lookups = sum(r["cache"]["hits"] + r["cache"]["misses"] for r in benches)
    hits = sum(r["cache"]["hits"] for r in benches)
    return {
        "total_wall_s": round(sum(r["wall_s"] for r in benches), 3),
        "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        "benches": benches,
    }


def write_report(path: Path, records: list[dict]) -> None:
    """Merge *records* into the report at *path* (created if missing)."""
    try:
        existing = json.loads(path.read_text())
    except (OSError, ValueError):
        existing = None
    path.write_text(json.dumps(merge_report(existing, records), indent=2) + "\n")


def pytest_sessionfinish(session, exitstatus):
    if not _records:
        return
    try:
        write_report(BENCH_REPORT, _records)
    except OSError:
        pass
