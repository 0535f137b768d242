"""The paired A/B tool's statistics: benchmarks/ab.py (no subprocess)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "ab", REPO_ROOT / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(spec)
sys.modules.setdefault("ab", ab)
spec.loader.exec_module(ab)

BASE = {"tasks_per_s": [100.0, 110.0, 90.0, 105.0, 95.0, 100.0],
        "peak_rss_mb": [36.0, 36.0, 36.0, 36.0, 36.0, 36.0]}
CHANGE = {"tasks_per_s": [120.0, 100.0, 115.0, 125.0, 118.0, 100.0],
          "peak_rss_mb": [35.0, 36.0, 37.0, 35.5, 35.0, 36.0]}
BETTER = {"tasks_per_s": "higher", "peak_rss_mb": "lower"}


def test_quartiles_match_the_exclusive_method():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_pairs_won_in_the_better_direction():
    summary = ab.summarize(BASE, CHANGE, BETTER)
    rate = summary["tasks_per_s"]
    # Pairs 1, 3, 4, 5 are higher; pair 2 is lower; pair 6 ties.
    assert (rate["won"], rate["pairs"]) == (4, 6)
    assert rate["base"]["median"] == 100.0
    assert rate["change"]["median"] == 116.5
    assert rate["ratio"] == pytest.approx(1.165)
    q1, q3 = rate["base"]["q1"], rate["base"]["q3"]
    assert (q1, q3) == (93.75, 106.25)
    assert rate["base"]["iqr"] == q3 - q1
    assert rate["change"]["samples"] == CHANGE["tasks_per_s"]
    memory = summary["peak_rss_mb"]
    # Lower is better: pairs 1, 4 and 5 are below 36.0.
    assert memory["won"] == 3
    assert memory["base"]["iqr"] == 0.0


def test_summary_skips_metrics_one_side_lacks():
    summary = ab.summarize(BASE, {"tasks_per_s": CHANGE["tasks_per_s"]},
                           BETTER)
    assert list(summary) == ["tasks_per_s"]


def test_zero_base_median_has_no_ratio():
    summary = ab.summarize({"m": [0.0, 0.0]}, {"m": [1.0, 2.0]},
                           {"m": "lower"})
    assert summary["m"]["ratio"] is None
    assert summary["m"]["won"] == 0
    assert "| n/a |" in ab.markdown_table(summary)


def test_markdown_table_has_one_row_per_metric():
    table = ab.markdown_table(ab.summarize(BASE, CHANGE, BETTER))
    lines = table.splitlines()
    assert lines[0].startswith("| metric | base median (IQR) |")
    assert lines[1] == "| --- | ---: | ---: | ---: | ---: |"
    assert lines[2:] == [
        "| `peak_rss_mb` (lower is better) | 36 (0) | 35.75 (1.25) "
        "| 0.993x | 3/6 |",
        "| `tasks_per_s` (higher is better) | 100 (12.5) | 116.5 (21.25) "
        "| 1.165x | 4/6 |",
    ]


def test_directions_come_from_the_benchmark_spec():
    directions = ab.better_directions()
    assert directions["tasks_per_s"] == "higher"
    assert directions["setup_s"] == "lower"
    assert ab.direction_of("train_solo.peak_rss_mb", directions) == "lower"
    assert ab.direction_of("tasks_per_s", directions) == "higher"
