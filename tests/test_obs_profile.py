"""Tests for the causal critical-path profiler (repro.obs.profile).

The acceptance bar from the issue: on a sanitized colocation run the
profiler attributes >= 95% of wall time to named categories, and the
per-category sums reconcile with the tracer's busy time within 1%.
"""

import json

import pytest

from repro.obs.profile import (
    CATEGORIES,
    _merge,
    _preemption_windows,
    _union_ms,
    main,
    profile_run,
    render_profile,
)
from repro.experiments.fig2_timeline import corun


@pytest.fixture(scope="module")
def preemption_profile(quick_cell):
    ctx = quick_cell("preemption", 1)
    return ctx, profile_run(ctx)


@pytest.fixture(scope="module")
def serve_profile(quick_cell):
    # Cell 1 of serving: an open-loop MobileNetV2 stream preempts a
    # ResNet50 trainer under SwitchFlow.
    ctx = quick_cell("serving", 1)
    return ctx, profile_run(ctx)


class TestHelpers:
    def test_merge_unions_overlaps(self):
        assert _merge([(5.0, 7.0), (0.0, 2.0), (1.0, 3.0)]) == \
            [(0.0, 3.0), (5.0, 7.0)]

    def test_merge_drops_empty_intervals(self):
        assert _merge([(2.0, 2.0), (3.0, 1.0)]) == []

    def test_union_ms_counts_overlap_once(self):
        assert _union_ms([(0.0, 10.0), (5.0, 15.0)]) == 15.0

    def test_preemption_windows_pair_per_victim_fifo(self):
        records = [
            {"event": "preempt", "victim": "v", "from_device": "g0",
             "t_ms": 10.0},
            {"event": "preempt", "victim": "v", "from_device": "g1",
             "t_ms": 20.0},
            {"event": "abort_complete", "victim": "v", "t_ms": 12.0},
            {"event": "abort_complete", "victim": "v", "t_ms": 25.0},
        ]
        assert _preemption_windows(records) == [
            ("v", "g0", 10.0, 12.0), ("v", "g1", 20.0, 25.0)]

    def test_unmatched_abort_ignored(self):
        records = [{"event": "abort_complete", "victim": "v", "t_ms": 5.0}]
        assert _preemption_windows(records) == []


class TestPartition:
    def test_categories_sum_exactly_to_wall_clock(self, preemption_profile):
        _ctx, result = preemption_profile
        assert sum(result.category_ms.values()) == \
            pytest.approx(result.end_ms)

    def test_segments_are_a_disjoint_cover(self, preemption_profile):
        _ctx, result = preemption_profile
        segments = result.segments
        assert segments[0].start == 0.0
        assert segments[-1].end == pytest.approx(result.end_ms)
        for left, right in zip(segments, segments[1:]):
            assert left.end == right.start
        assert all(s.duration > 0 for s in segments)
        assert all(s.category in CATEGORIES for s in segments)

    def test_attributes_at_least_95_percent(self, preemption_profile):
        _ctx, result = preemption_profile
        assert result.attributed_fraction >= 0.95

    def test_reconciles_with_tracer_within_1_percent(self,
                                                     preemption_profile):
        _ctx, result = preemption_profile
        assert result.tracer_busy_ms > 0
        assert result.reconciliation_error < 0.01

    def test_preemption_window_is_attributed(self, preemption_profile):
        _ctx, result = preemption_profile
        assert result.category_ms["preempt"] > 0
        assert result.meta["preemption_windows"] >= 1

    def test_serve_run_also_clears_the_bar(self, serve_profile):
        _ctx, result = serve_profile
        assert result.attributed_fraction >= 0.95
        assert result.reconciliation_error < 0.01


class TestBreakdowns:
    def test_victim_breakdown(self, preemption_profile):
        _ctx, result = preemption_profile
        victim = result.per_job["victim"]
        assert victim["preemptions_suffered"] >= 1
        assert victim["preempt_overhead_ms"] > 0
        assert victim["busy_ms"] > 0

    def test_iteration_time_dominates_critical_path_bound(
            self, preemption_profile):
        # The dependency-graph critical path is a lower bound on any
        # observed iteration; a mean below it means the DP is wrong.
        _ctx, result = preemption_profile
        for name, entry in result.per_job.items():
            if "critical_path_ms" not in entry:
                continue
            assert entry["critical_path_ms"] > 0, name
            assert entry["mean_iteration_ms"] >= entry["critical_path_ms"], \
                name

    def test_per_device_busy_fractions(self, preemption_profile):
        _ctx, result = preemption_profile
        assert result.per_device
        for lane, entry in result.per_device.items():
            assert 0.0 <= entry["busy_fraction"] <= 1.0, lane
        assert any(lane.startswith("gpu:") for lane in result.per_device)

    def test_metrics_exported(self, preemption_profile):
        ctx, result = preemption_profile
        assert ctx.metrics.value("profile.attributed_fraction") == \
            pytest.approx(result.attributed_fraction)
        assert ctx.metrics.value(
            "profile.category_ms", category="compute") > 0
        assert ctx.metrics.value("profile.overhead_wall_ms") > 0

    def test_export_opt_out(self):
        ctx, _jobs = corun(iterations=2)
        profile_run(ctx, export_metrics=False)
        assert ctx.metrics.get("profile.attributed_fraction") is None

    def test_overhead_measured(self, preemption_profile):
        _ctx, result = preemption_profile
        assert result.overhead_wall_ms > 0


class TestRendering:
    def test_render_names_every_category(self, preemption_profile):
        _ctx, result = preemption_profile
        text = render_profile(result)
        for category in CATEGORIES:
            assert category in text
        assert "reconciliation" in text
        assert "profiler overhead" in text

    def test_to_dict_round_trips_through_json(self, preemption_profile):
        _ctx, result = preemption_profile
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["end_ms"] == pytest.approx(result.end_ms)
        assert set(payload["category_ms"]) == set(CATEGORIES)


class TestCli:
    def test_cli_prints_profile_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main(["preemption", "--quick", "--cell", "1",
                     "--json", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "critical-path profile: preemption cell 1" in text
        payload = json.loads(out.read_text())
        assert payload["attributed_fraction"] >= 0.95

    def test_cli_rejects_bad_cell(self, capsys):
        assert main(["preemption", "--quick", "--cell", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--cell: ")
        assert captured.err.count("\n") == 1
