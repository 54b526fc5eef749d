"""``BENCH_engine.json`` accumulates: a subset bench run keeps other rows."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row(bench: str, wall_s: float, hits: int, misses: int) -> dict:
    return {
        "bench": bench,
        "wall_s": wall_s,
        "jobs": 1,
        "cache": {"hits": hits, "misses": misses},
    }


def test_subset_run_leaves_other_rows_intact(tmp_path):
    conftest = _bench_conftest()
    report = tmp_path / "BENCH_engine.json"
    full = [
        _row("test_core", 2.0, 0, 4),
        _row("test_headline", 5.0, 6, 2),
        _row("test_serve", 1.0, 3, 1),
    ]
    conftest.write_report(report, full)
    conftest.write_report(report, [_row("test_headline", 3.0, 8, 0)])

    merged = json.loads(report.read_text())
    rows = {row["bench"]: row for row in merged["benches"]}
    assert sorted(rows) == ["test_core", "test_headline", "test_serve"]
    assert rows["test_core"] == full[0]
    assert rows["test_serve"] == full[2]
    assert rows["test_headline"]["wall_s"] == 3.0  # the rerun replaced it
    assert merged["total_wall_s"] == 6.0
    assert merged["cache_hit_rate"] == round(11 / 16, 4)


def test_unreadable_report_is_replaced(tmp_path):
    conftest = _bench_conftest()
    report = tmp_path / "BENCH_engine.json"
    report.write_text("{truncated")
    conftest.write_report(report, [_row("test_core", 2.0, 1, 1)])
    merged = json.loads(report.read_text())
    assert [row["bench"] for row in merged["benches"]] == ["test_core"]
