"""Tests for the run-report CLI and the end-to-end instrumentation.

These run small cells of the runner's experiments and assert that the
runtime's hot paths actually publish into the shared metrics registry /
run log — the contract the report and the experiments rely on.
"""

import json

import pytest

from repro.core import SwitchFlowPolicy
from repro.experiments.fig2_timeline import corun
from repro.obs.report import main, run_summary


@pytest.fixture(scope="module")
def fig2_ctx(quick_cell):
    # Cell 1 of fig2: the multi-threaded TF pair, 6 iterations each.
    return quick_cell("fig2", 1)


@pytest.fixture(scope="module")
def switchflow_ctx():
    ctx, _jobs = corun(SwitchFlowPolicy, iterations=4)
    return ctx


@pytest.fixture(scope="module")
def preemption_ctx(quick_cell):
    # Cell 1 of preemption: a ResNet50 arrival preempts a VGG19 victim.
    return quick_cell("preemption", 1)


class TestInstrumentation:
    def test_gate_wait_recorded_by_switchflow(self, switchflow_ctx):
        metrics = switchflow_ctx.metrics
        family = metrics.get("sched.gate_wait_ms")
        assert family is not None and family.total() > 0
        # Two serialized jobs: someone waited a strictly positive time.
        assert family.quantile(95) > 0.0

    def test_acquire_wait_recorded_for_ungated_policy(self, fig2_ctx):
        # Multi-threaded TF has no device gates, but the driver-level
        # acquire-wait histogram must still be populated.
        assert fig2_ctx.metrics.get("sched.gate_wait_ms") is None
        assert fig2_ctx.metrics.value("sched.acquire_wait_ms") > 0

    def test_gpu_collector_gauges(self, fig2_ctx):
        metrics = fig2_ctx.metrics
        gpu = fig2_ctx.machine.gpu(0)
        busy = metrics.value("gpu.busy_fraction", device=gpu.name)
        assert 0.0 < busy <= 1.0
        assert metrics.value("gpu.kernels_total", device=gpu.name) > 0
        assert metrics.value("mem.high_water_bytes", device=gpu.name) > 0

    def test_pool_and_job_metrics(self, fig2_ctx):
        metrics = fig2_ctx.metrics
        assert metrics.value("pool.tasks_total") > 0
        assert metrics.value("job.iteration_ms", job="resnet50-0") == 6
        assert metrics.quantile("job.iteration_ms", 50) > 0

    def test_runlog_narrates_job_lifecycle(self, fig2_ctx):
        assert fig2_ctx.runlog.count("job_started") == 2
        assert fig2_ctx.runlog.count("job_finished") == 2

    def test_preemption_publishes_metrics_and_log(self, preemption_ctx):
        metrics = preemption_ctx.metrics
        assert metrics.value("sched.preemptions") >= 1
        assert metrics.value("sched.migrations") >= 1
        assert metrics.value("rm.transfers_total") >= 1
        assert len(metrics.get("rm.transfer_ms").all_samples()) >= 1
        decisions = preemption_ctx.runlog.filter("preempt")
        assert decisions and decisions[0]["victim"] == "victim"
        assert preemption_ctx.runlog.count("state_transfer_done") >= 1

    def test_no_leaked_spans_after_run(self, fig2_ctx, preemption_ctx):
        fig2_ctx.tracer.assert_all_closed()
        preemption_ctx.tracer.assert_all_closed()


class TestRunSummary:
    def test_summary_sections(self, preemption_ctx):
        text = run_summary(preemption_ctx, width=80)
        assert "preemptions:" in text
        assert "gate-wait" in text and "p95=" in text
        assert "abort-drain" in text
        assert "state transfer" in text
        assert "GPU timeline" in text
        for gpu in preemption_ctx.machine.gpus:
            assert gpu.name in text

    def test_summary_falls_back_without_gates(self, fig2_ctx):
        text = run_summary(fig2_ctx, width=80)
        assert "no device gates" in text
        assert "busy" in text

    def test_summary_only_reads_shared_surfaces(self, switchflow_ctx):
        # The report must work from (metrics, runlog, tracer, machine)
        # alone -- no experiment internals.
        text = run_summary(switchflow_ctx, width=60)
        assert "jobs" in text
        assert "resnet50-0" in text


class TestCli:
    def test_list_workloads(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "preemption", "serving"):
            assert f"  {name}\n" in out

    def test_no_workload_defaults_to_list(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_no_cell_lists_the_cells(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "cells: fig2 (quick, seed=0)" in out
        assert "  0  solo/ResNet50  (end " in out
        assert "  1  resnet50-0, resnet50-1  (end " in out

    @pytest.mark.parametrize("experiment", ["serving", "fault_sweep"])
    def test_cell_labels_name_policy_and_faults(self, capsys, experiment):
        assert main([experiment, "--quick"]) == 0
        labels = [line.split(None, 1)[1]
                  for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert len(labels) > 1
        assert len(set(labels)) == len(labels)
        assert "SwitchFlowPolicy" in labels[1]
        if experiment == "fault_sweep":
            assert all(", faults " in label for label in labels)

    def test_report_with_exports(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(["fig2", "--quick", "--cell", "1",
                     "--chrome-trace", str(trace_path),
                     "--jsonl", str(jsonl_path),
                     "--metrics-json", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run report: fig2 cell 1" in out
        assert "per-GPU" in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        for line in jsonl_path.read_text().splitlines():
            assert "t_ms" in json.loads(line)
        snapshot = json.loads(metrics_path.read_text())
        assert "job.iteration_ms" in snapshot

    @pytest.mark.parametrize("argv, flag", [
        (["nope"], "experiment"),
        (["fig2", "--quick", "--cell", "2"], "--cell"),
        (["fig2", "--quick", "--cell", "-1"], "--cell"),
    ])
    def test_bad_experiment_or_cell_exits_two(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{flag}: ")
        assert captured.err.count("\n") == 1
