"""Run options: parsing, activation, fan-out shipping and precedence."""

import ast
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.concurrency import finalize_concurrency
from repro.baselines import MultiThreadedTF
from repro.core import (
    RunOptions,
    RunOptionsError,
    current_options,
    make_context,
    use_options,
)
from repro.core.options import MIN_TIMESERIES_INTERVAL_MS
from repro.experiments.common import _capture_call, fanout_map
from repro.experiments.runner import main as runner_main
from repro.faults import KINDS, FaultPlan, FaultPlanError
from repro.hw import v100_server
from repro.obs.report import main as report_main
from repro.serving import ServingConfig
from repro.serving.config import ServingConfigError

EXAMPLE_PLAN = str(Path(__file__).resolve().parents[1] / "examples"
                   / "faults_basic.json")


# ---------------------------------------------------------------------------
# RunOptions.parse
# ---------------------------------------------------------------------------
class TestParse:
    def test_defaults_are_all_off(self):
        assert RunOptions.parse() == RunOptions()
        assert current_options() == RunOptions()

    def test_every_flag(self):
        options = RunOptions.parse(
            sanitize=True, faults=EXAMPLE_PLAN, timeseries="25:64",
            concurrency="hb", serving="rate=60,kind=bursty")
        assert options.sanitize
        assert options.faults == FaultPlan.load(EXAMPLE_PLAN)
        assert options.timeseries == (25.0, 64)
        assert options.concurrency == "hb"
        assert options.serving == ServingConfig(rate_rps=60.0,
                                                trace_kind="bursty")

    def test_interval_alone_takes_the_default_capacity(self):
        assert RunOptions.parse(timeseries="100").timeseries == (100.0, 512)

    def test_bare_concurrency_flag_means_hb(self):
        assert RunOptions.parse(concurrency="1").concurrency == "hb"

    @pytest.mark.parametrize("flag, value", [
        ("timeseries", "nan"), ("timeseries", "inf"), ("timeseries", "-5"),
        ("timeseries", "10:0"), ("timeseries", "fast"),
        ("timeseries", "1e-300"), ("timeseries", "0.5"),
        ("serving", "rate=nan"), ("serving", "timeout=inf"),
        ("serving", "slo=-inf"), ("concurrency", "tsan"),
        ("concurrency", "lockset"),
        ("faults", "/nonexistent/plan.json"),
    ])
    def test_bad_value_names_its_flag(self, flag, value):
        with pytest.raises(RunOptionsError, match=f"^--{flag}: "):
            RunOptions.parse(**{flag: value})


# ---------------------------------------------------------------------------
# Non-finite input is rejected where it is parsed
# ---------------------------------------------------------------------------
class TestNonFinite:
    def test_serving_rate_nan(self):
        with pytest.raises(ServingConfigError, match="rate"):
            ServingConfig.parse("rate=nan")

    def test_spurious_preempt_every_ms_nan(self):
        with pytest.raises(FaultPlanError, match="every_ms"):
            FaultPlan.from_dict({"faults": [
                {"kind": "spurious_preempt",
                 "trigger": {"every_ms": math.nan}}]})

    def test_factor_and_at_ms_nan(self):
        with pytest.raises(FaultPlanError, match="at_ms"):
            FaultPlan.from_dict({"faults": [
                {"kind": "kernel_slowdown", "trigger": {"at_ms": math.nan},
                 "factor": math.nan}]})
        with pytest.raises(FaultPlanError, match="factor"):
            FaultPlan.from_dict({"faults": [
                {"kind": "kernel_slowdown", "trigger": {"at_ms": 5.0},
                 "factor": math.nan}]})

    def test_recovery_backoff_inf(self):
        with pytest.raises(FaultPlanError, match="backoff_cap_ms"):
            FaultPlan.from_dict({"recovery": {"backoff_cap_ms": math.inf}})


def _plan_file(tmp_path, fault):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"faults": [fault]}), encoding="utf-8")
    return str(path)


def _assert_one_line_error(capsys, flag):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith(flag)
    assert captured.err.count("\n") == 1


class TestCliExitTwo:
    @pytest.mark.parametrize("argv, flag", [
        (["--timeseries", "nan"], "--timeseries"),
        (["--serving", "rate=nan"], "--serving"),
        (["--jobs", "-3"], "--jobs"),
        (["--concurrency", "lockset"], "--concurrency"),
    ])
    def test_runner(self, capsys, argv, flag):
        assert runner_main(["fig2", "--quick"] + argv) == 2
        _assert_one_line_error(capsys, flag)

    @pytest.mark.parametrize("fault", [
        {"kind": "spurious_preempt", "trigger": {"every_ms": math.nan}},
        {"kind": "kernel_slowdown", "trigger": {"at_ms": math.nan},
         "factor": math.nan},
    ])
    def test_runner_nan_fault_plan(self, capsys, tmp_path, fault):
        plan = _plan_file(tmp_path, fault)
        assert runner_main(["fig2", "--quick", "--faults", plan]) == 2
        _assert_one_line_error(capsys, "--faults")

    def test_report_timeseries_nan(self, capsys):
        assert report_main(["fig2", "--quick", "--cell", "1",
                            "--timeseries", "nan"]) == 2
        _assert_one_line_error(capsys, "--timeseries")

    def test_report_timeseries_below_floor(self, capsys):
        # An interval this small would stall the sampler's time grid.
        assert report_main(["fig2", "--quick", "--cell", "1",
                            "--timeseries", "1e-300"]) == 2
        _assert_one_line_error(capsys, "--timeseries")


# ---------------------------------------------------------------------------
# Fuzz: each input parses or raises the parser's own error type
# ---------------------------------------------------------------------------
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)
NUMBER = st.integers(min_value=-3, max_value=1000) | st.floats()
TRIGGER = st.dictionaries(
    st.sampled_from(["at_ms", "every_ms", "every_n", "probability"]),
    NUMBER | JSON, min_size=1, max_size=2)
FAULT = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS) | JSON, "trigger": TRIGGER | JSON},
    optional={
        **{name: st.text(max_size=4) | JSON
           for name in ("job", "device")},
        "on": st.sampled_from(["iteration", "preempt"]) | JSON,
        **{name: NUMBER | JSON
           for name in ("factor", "stall_ms", "fraction", "duration_ms",
                        "index")}})
RECOVERY = st.fixed_dictionaries({}, optional={
    name: NUMBER | JSON
    for name in ("transfer_retries", "backoff_base_ms", "backoff_cap_ms",
                 "checkpoint_interval", "max_restarts", "restart_delay_ms",
                 "degrade_after")})
PLAN = st.one_of(
    st.fixed_dictionaries({"faults": st.lists(FAULT, min_size=1,
                                              max_size=3)},
                          optional={"recovery": RECOVERY}),
    st.fixed_dictionaries({}, optional={"faults": JSON, "recovery": JSON}),
    st.dictionaries(st.text(max_size=8), JSON, max_size=2))

NUMERAL = (st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "-1"])
           | st.floats().map(repr) | st.integers().map(str))
SERVING_KEYS = ["rate", "kind", "queue", "shed", "batch", "timeout", "slo"]
SERVING_SPEC = st.text() | st.lists(st.tuples(
    st.sampled_from(SERVING_KEYS) | st.text(max_size=4),
    NUMERAL | st.text(max_size=6)), min_size=1, max_size=3).map(
        lambda pairs: ",".join(f"{key}={value}" for key, value in pairs))
TIMESERIES_SPEC = st.text() | st.tuples(
    NUMERAL, st.integers().map(str) | st.just("")).map(":".join)


@settings(deadline=None, max_examples=300)
@given(PLAN)
def test_fuzz_fault_plan_dict(payload):
    try:
        plan = FaultPlan.from_dict(payload)
    except FaultPlanError:
        return
    assert FaultPlan.from_dict(plan.to_dict()) == plan


@settings(deadline=None, max_examples=300)
@given(TIMESERIES_SPEC, SERVING_SPEC,
       st.text() | st.sampled_from(["hb", "lockset", "1"]))
def test_fuzz_run_options_parse(timeseries, serving, concurrency):
    for flag, value in (("timeseries", timeseries), ("serving", serving),
                        ("concurrency", concurrency)):
        try:
            options = RunOptions.parse(**{flag: value})
        except RunOptionsError as exc:
            assert str(exc).startswith(f"--{flag}: ")
            continue
        if options.timeseries is not None:
            interval_ms, capacity = options.timeseries
            assert math.isfinite(interval_ms)
            assert interval_ms >= MIN_TIMESERIES_INTERVAL_MS
            assert capacity >= 1
        if options.serving is not None:
            for value in vars(options.serving).values():
                if isinstance(value, float):
                    assert math.isfinite(value)


def test_runner_rejects_a_fuzzed_flag_with_exit_two(capsys):
    assert runner_main(["table1", "--quick", "--timeseries", "1e999:4",
                        "--serving", "rate=5"]) == 2
    _assert_one_line_error(capsys, "--timeseries")


# ---------------------------------------------------------------------------
# Activation and fan-out shipping
# ---------------------------------------------------------------------------
def _options_seen_by_worker(_item):
    return current_options(), os.getpid()


class TestActivation:
    def test_use_options_restores_after_exception(self):
        outer = RunOptions(sanitize=True)
        with use_options(outer):
            with pytest.raises(RuntimeError):
                with use_options(RunOptions(concurrency="hb")):
                    assert current_options().concurrency == "hb"
                    raise RuntimeError("boom")
            assert current_options() is outer
        assert current_options() == RunOptions()

    def test_worker_payload_carries_the_options(self):
        options = RunOptions(sanitize=True, timeseries=(50.0, 8))
        status, (seen, _pid), _reports, _tb = _capture_call(
            (_options_seen_by_worker, None, options))
        assert status == "ok"
        assert seen == options
        assert current_options() == RunOptions()

    def test_fanout_workers_see_the_parent_options(self):
        options = RunOptions.parse(
            sanitize=True, faults=EXAMPLE_PLAN, timeseries="100",
            concurrency="hb", serving="rate=60")
        with use_options(options):
            results = fanout_map(_options_seen_by_worker, [0, 1], jobs=2)
        assert [seen for seen, _pid in results] == [options, options]
        assert all(pid != os.getpid() for _seen, pid in results)


class TestExplicitAttachWins:
    def test_explicit_plan_sampler_tracker_and_serving_win(self):
        explicit_plan = FaultPlan()
        explicit_serving = ServingConfig(max_batch=2)
        ctx = make_context(v100_server, 1, seed=0, fault_plan=explicit_plan,
                           timeseries_interval_ms=5.0, concurrency="hb",
                           serving=explicit_serving)
        injector, sampler, tracker = ctx.faults, ctx.timeseries, \
            ctx.concurrency
        policy = MultiThreadedTF(ctx)
        try:
            RunOptions.parse(
                faults=EXAMPLE_PLAN, timeseries="100:4", concurrency="hb",
                serving="rate=60").attach(ctx, policy)
            assert ctx.faults is injector
            assert ctx.faults.plan is explicit_plan
            assert ctx.faults._policy is policy
            assert ctx.timeseries is sampler
            assert ctx.timeseries.interval_ms == 5.0
            assert ctx.concurrency is tracker
            assert ctx.serving is explicit_serving
        finally:
            finalize_concurrency(ctx)

    def test_options_fill_what_is_missing(self):
        ctx = make_context(v100_server, 1, seed=0)
        options = RunOptions.parse(faults=EXAMPLE_PLAN, timeseries="100:4",
                                   serving="rate=60")
        options.attach(ctx, MultiThreadedTF(ctx))
        assert ctx.faults.plan is options.faults
        assert (ctx.timeseries.interval_ms, ctx.timeseries.capacity) == \
            (100.0, 4)
        assert ctx.serving is options.serving


# ---------------------------------------------------------------------------
# Guard: run features do not go back to environment variables
# ---------------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules allowed to read or write the environment, and why.
ENVIRON_ALLOWLIST = {
    "core/config.py",                      # the paper's TF_* variables
}


def _environment_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os" \
                and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name in ("environ", "getenv")
                        for alias in node.names):
            yield node.lineno


def test_environment_reads_stay_in_the_allowlist():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ENVIRON_ALLOWLIST:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders.extend(f"{relative}:{line}"
                         for line in _environment_uses(tree))
    assert offenders == []


def test_allowlist_names_existing_modules():
    assert all((SRC / relative).is_file() for relative in ENVIRON_ALLOWLIST)
