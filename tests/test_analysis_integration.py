"""Tests for the runner/CLI wiring of the analysis passes."""

from types import SimpleNamespace

import pytest

from repro.analysis.cli import main as analysis_main
from repro.analysis.integration import (
    SanitizationError,
    analyze_context,
    enforce,
)
from repro.baselines import MultiThreadedTF
from repro.core import (
    JobHandle,
    RunOptions,
    current_options,
    make_context,
    use_options,
)
from repro.hw import v100_server
from repro.models import get_model
from repro.sim.trace import Span
from repro.workloads import JobSpec, run_colocation


def small_run(seed=3):
    ctx = make_context(v100_server, 1, seed=seed)
    job = JobHandle(name="solo", model=get_model("MobileNetV2"), batch=8,
                    training=False,
                    preferred_device=ctx.machine.gpu(0).name)
    policy_holder = {}

    def factory(ctx):
        policy_holder["policy"] = MultiThreadedTF(ctx)
        return policy_holder["policy"]

    run_colocation(ctx, factory, [JobSpec(job=job, iterations=2)])
    return ctx, policy_holder["policy"]


def forge_violation(ctx):
    lane = next(s.lane for s in ctx.tracer.spans
                if s.lane.startswith("gpu:"))
    real = next(s for s in ctx.tracer.spans
                if s.lane == lane and s.duration > 0
                and s.meta.get("context"))
    ctx.tracer.spans.append(
        Span(lane, "forged", real.start, real.end,
             {"context": "intruder"}))


@pytest.fixture
def sanitized():
    """Run the test body under the sanitize run option (--sanitize)."""
    with use_options(RunOptions(sanitize=True)):
        yield


class TestEnvGate:
    """The sanitize run option gates enforcement."""

    def test_disabled_by_default(self):
        assert not current_options().sanitize

    def test_zero_and_empty_mean_disabled(self):
        assert not RunOptions.parse().sanitize
        assert not RunOptions.parse(sanitize=False).sanitize

    def test_any_other_value_enables(self, sanitized):
        assert current_options().sanitize


class TestEnforce:
    def test_noop_when_disabled(self):
        ctx, policy = small_run()
        forge_violation(ctx)  # even a bad trace passes silently
        assert enforce(ctx, policy=policy) is None

    def test_clean_run_returns_the_report(self, sanitized):
        ctx, policy = small_run()
        report = enforce(ctx, policy=policy, label="smoke")
        assert report is not None
        assert not report.has_errors
        assert report.title == "analysis: smoke"

    def test_error_finding_raises(self, sanitized):
        ctx, _policy = small_run()
        forge_violation(ctx)
        # No policy given: the exclusivity invariant is enforced.
        with pytest.raises(SanitizationError) as excinfo:
            enforce(ctx, label="bad")
        assert "mutual-exclusion" in str(excinfo.value)
        assert excinfo.value.report.has_errors

    def test_sanitized_colocation_runs_inline(self, sanitized):
        # run_colocation itself calls enforce: a clean run under the
        # flag must complete without raising.
        ctx, _policy = small_run()
        assert ctx.metrics.value("analysis.runs_total") >= 1


class TestMetricsExport:
    def test_analyze_context_exports_counts(self):
        ctx, policy = small_run()
        forge_violation(ctx)
        analyze_context(ctx, policy=None, label="forged")
        assert ctx.metrics.value("analysis.runs_total") == 1
        assert ctx.metrics.value("analysis.findings_total",
                                 check="mutual-exclusion",
                                 severity="error") >= 1


class TestCli:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert analysis_main(["lint", str(target)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_bad_file_exits_one(self, tmp_path, capsys):
        core = tmp_path / "core"
        core.mkdir()
        target = core / "bad.py"
        target.write_text("import time\nt = time.time()\n")
        assert analysis_main(["lint", str(target)]) == 1
        assert "wallclock" in capsys.readouterr().out

    def test_lint_shipped_tree_is_clean(self, capsys):
        assert analysis_main(["--quiet", "lint", "src/repro"]) == 0

    def test_graphs_subcommand_lints_a_model(self, capsys):
        assert analysis_main(["graphs", "MobileNetV2", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        assert "linted 2 graph(s) from 1 model(s)" in out

    @pytest.mark.parametrize("argv, message", [
        (["graphs", "NoSuchModel"], "expected a model"),
        (["graphs", "--batch", "0"], "expected a positive integer"),
        (["graphs", "--batch", "-3"], "expected a positive integer"),
        (["lint", "/nonexistent"], "expected an existing file"),
        (["concurrency", "/nonexistent"], "expected an existing file"),
    ], ids=["unknown-model", "batch-zero", "batch-negative",
            "lint-missing-path", "concurrency-missing-path"])
    def test_bad_input_exits_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            analysis_main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read run log"),
        ('{"t_ms": 0.0, "event": "a"}\n{oops\n', ":2: not a JSON object"),
    ], ids=["missing-file", "bad-line"])
    def test_unreadable_runlog_exits_two(self, tmp_path, capsys, content,
                                         message):
        log = tmp_path / "run.jsonl"
        if content is not None:
            log.write_text(content)
        assert analysis_main(["concurrency", "--runlog", str(log),
                              str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(str(log))
        assert message in captured.err

    def test_sanitize_subcommand_sets_and_restores_env(
            self, monkeypatch, capsys):
        seen = {}

        def fake_main(argv):
            seen["argv"] = argv
            return 0

        from repro.experiments import runner
        monkeypatch.setattr(runner, "main", fake_main)
        assert analysis_main(["sanitize", "fig3", "--quick"]) == 0
        assert seen["argv"] == ["fig3", "--quick", "--sanitize"]
        assert current_options() == RunOptions()


class _FakeResult:
    def to_table(self):
        return "fake table"


def _fake_spec(run):
    """A runner table entry whose module is just ``run``."""
    from repro.experiments.runner import ExperimentSpec

    module = SimpleNamespace(run=run, headline_checks=lambda result: [])
    return ExperimentSpec("motivation", module, {}, {})


class TestRunnerFlag:
    def test_runner_sanitize_flag_fails_on_violation(
            self, monkeypatch, capsys):
        # Patch one experiment to emit a forged bad trace; the runner
        # must catch SanitizationError and exit non-zero.
        from repro.experiments import runner

        def bad_experiment(seed=0):
            ctx, _policy = small_run()
            forge_violation(ctx)
            enforce(ctx, label="forged")
            return _FakeResult()

        monkeypatch.setitem(runner.EXPERIMENTS, "motivation",
                            _fake_spec(bad_experiment))
        code = runner.main(["motivation", "--quick", "--sanitize"])
        assert code == 1
        err = capsys.readouterr().err
        assert "invariant violation" in err
        assert "mutual-exclusion" in err

    def test_runner_sanitize_flag_restores_env(self, monkeypatch, capsys):
        from repro.experiments import runner

        seen = {}

        def clean_experiment(seed=0):
            seen["sanitize"] = current_options().sanitize
            return _FakeResult()

        monkeypatch.setitem(runner.EXPERIMENTS, "motivation",
                            _fake_spec(clean_experiment))
        assert runner.main(["motivation", "--quick", "--sanitize"]) == 0
        assert seen["sanitize"] is True
        assert not current_options().sanitize
