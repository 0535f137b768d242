"""Smoke and shape tests for the experiment harnesses.

These run small instances of each table/figure reproduction and assert
the paper's *qualitative* claims hold (who wins, in which direction).
Full-scale runs of the runner's table live in
benchmarks/bench_experiments.py.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.experiments import (
    fig2_timeline,
    fig3_idle,
    fig6_tail_latency,
    fig7_throughput,
    fig8_input_reuse,
    fig10_interleaving,
    motivation_streams,
    preemption_overhead,
    table1_state_transfer,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import EXPERIMENTS, main as runner_main
from repro.faults import FaultPlan


class TestCommon:
    def test_result_table_rendering(self):
        result = ExperimentResult(name="x", title="T")
        result.add_row(a=1, b="text")
        result.add_row(a=2.5, c=None)
        table = result.to_table()
        assert "T" in table and "a" in table and "text" in table

    def test_empty_table(self):
        assert "no rows" in ExperimentResult(name="x", title="T").to_table()


class TestTable1:
    def test_matches_paper_within_tolerance(self):
        result = table1_state_transfer.run(simulate=False)
        for row in result.rows:
            assert row["stateful_mib"] == pytest.approx(
                row["paper_mib"], rel=0.06)
            assert row["analytic_ms"] == pytest.approx(
                row["paper_ms"], rel=0.25)

    def test_simulated_transfer_close_to_analytic(self):
        ms = table1_state_transfer.simulated_transfer_ms("MobileNetV2")
        result = table1_state_transfer.run(
            models=["MobileNetV2"], simulate=False)
        assert ms == pytest.approx(result.rows[0]["analytic_ms"], rel=0.02)


class TestMotivation:
    def test_majority_of_conv_kernels_register_bound(self):
        result = motivation_streams.occupancy_analysis()
        blocked = sum(1 for row in result.rows
                      if row["can_corun_with_twin"] == "no")
        assert blocked == 10          # paper: 10 of 13

    def test_two_streams_no_faster_than_sequential(self):
        result = motivation_streams.two_stream_timing()
        sequential = result.rows[0]["completion_ms"]
        concurrent = result.rows[1]["completion_ms"]
        assert concurrent >= 0.95 * sequential


class TestFig2:
    def test_corun_roughly_halves_throughput(self):
        result = fig2_timeline.run(iterations=8)
        solo = result.rows[0]["images_per_s"]
        corun = [row["images_per_s"] for row in result.rows[1:]]
        for rate in corun:
            assert 0.35 * solo < rate < 0.7 * solo
        # Heavy kernels serialize almost completely.
        assert result.rows[1]["serialization_fraction"] > 0.9

    def test_ascii_timeline_renders(self):
        art = fig2_timeline.render_timeline(window_ms=200.0, width=60)
        assert "█" in art and "░" in art


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_idle.run(iterations=12,
                             models=["ResNet50", "MobileNetV2",
                                     "NASNetMobile"])

    def test_all_headline_checks_pass(self, result):
        checks = fig3_idle.headline_checks(result)
        assert len(checks) == 4
        failures = [check for check in checks if check.startswith("FAIL")]
        assert not failures, failures

    def test_idle_fractions_are_valid_percentages(self, result):
        for row in result.rows:
            assert 0.0 <= row["gpu_idle_pct"] <= 100.0


class TestFig6:
    def test_switchflow_beats_tf_for_every_pair(self):
        result = fig6_tail_latency.run(
            requests=20,
            panels=[("VGG16", ["ResNet50"]), ("NMT-panel", ["VGG16"])])
        for row in result.rows:
            assert row["improvement_x"] > 2.0
        nmt_row = [r for r in result.rows
                   if r["inference_job"] == "NMT"][0]
        assert nmt_row["improvement_x"] > 8.0   # paper: up to 19.05x


class TestFig7:
    def test_mps_default_mode_crashes_on_11gb(self):
        # Paper: 'all models crash under MPS on 11 GB GPUs'.
        assert fig7_throughput.mps_default_mode_crashes()


class TestFig8:
    def test_inference_gains_exceed_training_gains(self):
        from repro.hw import TESLA_V100, single_gpu_server
        configs = [
            ("train", single_gpu_server, (TESLA_V100,), True, 32, 32),
            ("infer", single_gpu_server, (TESLA_V100,), False, 128, 32),
        ]
        result = fig8_input_reuse.run(iterations=6, models=["ResNet50"],
                                      configs=configs)
        gains = {row["panel"]: row["improvement_pct"]
                 for row in result.rows}
        assert gains["infer"] > gains["train"]
        assert gains["infer"] > 30.0


class TestFig10:
    def test_interleaving_beats_time_slicing(self):
        result = fig10_interleaving.run(iterations=6,
                                        models=["ResNet50"])
        for row in result.rows:
            assert row["improvement_pct"] > 0.0


class TestPreemptionOverhead:
    def test_latency_is_tens_of_ms(self):
        result = preemption_overhead.run(models=["VGG16"])
        row = result.rows[0]
        assert 1.0 < row["preemption_latency_ms"] < 120.0
        assert row["state_fraction_of_11gb_pct"] < 10.0


class TestExperimentTable:
    """The runner's table, checked without running any experiment."""

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_kwargs_bind_to_run(self, name):
        spec = EXPERIMENTS[name]
        assert spec.name == name
        signature = inspect.signature(spec.module.run)
        signature.bind(**spec.full)
        signature.bind(**spec.quick)
        assert callable(spec.module.headline_checks)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_run_accepts_seed(self, name):
        # The runner passes --seed to every experiment's run.
        spec = EXPERIMENTS[name]
        signature = inspect.signature(spec.module.run)
        signature.bind(seed=3, **spec.full)
        signature.bind(seed=3, **spec.quick)

    def test_list_prints_the_table_in_order(self, capsys):
        assert runner_main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "available experiments:"
        assert [line.strip() for line in lines[1:]] == list(EXPERIMENTS)


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        assert "fig6" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert runner_main(["nope"]) == 2

    def test_runs_table1(self, capsys):
        assert runner_main(["table1", "--quick"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_out_writes_one_json_per_experiment(self, capsys, tmp_path):
        names = ["table1", "motivation"]
        assert runner_main(names + ["--quick", "--out", str(tmp_path)]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("check: ")]
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            ["motivation.json", "table1.json"]
        checks = []
        for name in names:
            record = json.loads((tmp_path / f"{name}.json").read_text())
            result = EXPERIMENTS[name].run("quick")
            assert record["experiment"] == name
            assert record["title"] == result.title
            assert record["rows"] == json.loads(json.dumps(result.rows))
            assert record["notes"] == result.notes
            assert record["seed"] == 0
            assert "faults" not in record
            checks.extend(f"check: {check}" for check in record["checks"])
        assert checks == printed and printed

    def test_out_record_carries_the_fault_plan(self, capsys, tmp_path):
        plan = Path(__file__).resolve().parents[1] / "examples" \
            / "faults_basic.json"
        assert runner_main(["table1", "--quick", "--faults", str(plan),
                            "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "table1.json").read_text())
        assert record["faults"] == FaultPlan.load(str(plan)).to_dict()

    def test_seed_reaches_the_experiment(self, capsys):
        assert runner_main(["cluster_scale", "--quick", "--seed", "3"]) == 0
        title = capsys.readouterr().out.splitlines()[0]
        assert title.startswith("== Cluster scale-out")
        assert "seed 3)" in title
