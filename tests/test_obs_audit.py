"""Tests for the scheduler decision audit (repro.obs.audit).

Acceptance bar from the issue: the audit CLI returns a decision record
for every preemption the sanitizer observed in a colocation run.
"""

import json

import pytest

from repro.core import RunOptions, make_context, use_options
from repro.core.switchflow import SwitchFlowPolicy
from repro.hw import v100_server
from repro.obs.audit import (
    DECISION_EVENT,
    decisions,
    dump_flight_record,
    emit_decision,
    explain,
    flight_record,
    main,
    why,
)
from repro.obs.runlog import RunLog


@pytest.fixture(scope="module")
def preemption_ctx(quick_cell):
    return quick_cell("preemption", 1)


class TestEmission:
    def test_ids_are_sequential_per_runlog(self):
        runlog = RunLog()
        first = emit_decision(runlog, "admit", job="a", chosen="gpu0")
        second = emit_decision(runlog, "preempt", job="b", victim="a")
        assert (first, second) == (1, 2)
        records = runlog.filter(DECISION_EVENT)
        assert [r["decision"] for r in records] == [1, 2]
        assert records[0]["kind"] == "admit"

    def test_disabled_runlog_returns_none_without_advancing(self):
        runlog = RunLog(enabled=False)
        assert emit_decision(runlog, "admit", job="a") is None
        assert emit_decision(runlog, "admit", job="b") is None
        assert runlog.decision_seq == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            emit_decision(RunLog(), "reboot", job="a")

    def test_considered_and_rejected_encoded_flat(self):
        runlog = RunLog()
        emit_decision(runlog, "preempt", job="hi", victim="lo",
                      chosen="gpu1",
                      rejected=[{"device": "gpu2", "why": "degraded"}])
        raw = runlog.filter(DECISION_EVENT)[0]
        assert isinstance(raw["rejected"], str)  # flat JSONL field
        assert json.loads(raw["rejected"])[0]["why"] == "degraded"
        # ...and the query layer decodes it back to structure.
        decoded = decisions(runlog.records)[0]
        assert decoded["rejected"][0]["device"] == "gpu2"


class TestQueries:
    @pytest.fixture()
    def records(self):
        runlog = RunLog()
        emit_decision(runlog, "admit", job="train", chosen="gpu0")
        emit_decision(runlog, "admit", job="serve", chosen="gpu0")
        emit_decision(runlog, "preempt", job="serve", victim="train",
                      requester="serve", device="gpu0", chosen="gpu1")
        return runlog.records

    def test_filter_by_kind(self, records):
        assert len(decisions(records, kind="admit")) == 2
        assert len(decisions(records, kind="preempt")) == 1

    def test_job_matches_victim_and_requester(self, records):
        # "why was train preempted" and "why did serve preempt" both hit.
        assert decisions(records, kind="preempt", job="train")
        assert decisions(records, kind="preempt", job="serve")
        assert not decisions(records, job="nobody")

    def test_why_returns_last_decision(self, records):
        record = why(records, "serve")
        assert record["kind"] == "preempt"

    def test_why_at_ms_returns_decision_in_force(self):
        runlog = RunLog(clock=lambda: 0.0)
        emit_decision(runlog, "admit", job="a", chosen="gpu0")
        runlog.records[-1]["t_ms"] = 100.0
        emit_decision(runlog, "readmit", job="a", chosen="gpu1")
        runlog.records[-1]["t_ms"] = 500.0
        assert why(runlog.records, "a", at_ms=200.0)["kind"] == "admit"
        assert why(runlog.records, "a", at_ms=500.0)["kind"] == "readmit"
        assert why(runlog.records, "a")["kind"] == "readmit"

    def test_why_unknown_job_is_none(self, records):
        assert why(records, "nobody") is None

    def test_explain_renders_rejections(self, records):
        runlog = RunLog()
        emit_decision(runlog, "preempt", job="hi", victim="lo",
                      rejected=[{"device": "gpu2", "why": "degraded"}])
        text = explain(runlog.records[0])
        assert "[preempt]" in text
        assert "device=gpu2, why=degraded" in text


class TestEndToEnd:
    def test_every_preemption_has_a_decision_record(self, preemption_ctx):
        # The acceptance property: each preempt outcome the sanitizer
        # observed references a decision the audit query can return.
        runlog = preemption_ctx.runlog
        preempts = runlog.filter("preempt")
        assert preempts
        for outcome in preempts:
            assert outcome.get("decision") is not None
            record = why(runlog.records, outcome["victim"],
                         at_ms=outcome["t_ms"])
            assert record is not None
            assert record["decision"] == outcome["decision"]
            assert record["victim"] == outcome["victim"]

    def test_abort_outcomes_reference_their_decision(self, preemption_ctx):
        runlog = preemption_ctx.runlog
        ids = {r["decision"] for r in runlog.filter(DECISION_EVENT)}
        for outcome in runlog.filter("abort_complete"):
            assert outcome["decision"] in ids

    def test_every_job_admission_is_audited(self, preemption_ctx):
        runlog = preemption_ctx.runlog
        admitted = {r["job"] for r in decisions(runlog.records,
                                                kind="admit")}
        started = {r["job"] for r in runlog.filter("job_started")}
        assert started <= admitted

    def test_preempt_decision_carries_inputs_and_alternatives(
            self, preemption_ctx):
        record = decisions(preemption_ctx.runlog.records,
                           kind="preempt")[0]
        assert record["victim_priority"] > record["requester_priority"]
        assert record["chosen"]
        assert "queue_depth" in record
        assert isinstance(record["rejected"], list)

    def test_gate_wait_records_emitted(self, preemption_ctx):
        waits = preemption_ctx.runlog.filter("gate_wait")
        assert waits
        assert all(w["wait_ms"] > 0 for w in waits)


class TestFlightRecorder:
    def test_snapshot_captures_pending_decisions(self):
        ctx = make_context(v100_server, 1, seed=7)
        decision = emit_decision(ctx.runlog, "preempt", job="hi",
                                 victim="lo", device="gpu0")
        snapshot = flight_record(ctx, "deadlock-abort")
        assert snapshot["reason"] == "deadlock-abort"
        assert [d["decision"] for d in snapshot["pending_decisions"]] == \
            [decision]
        # Once the abort lands, the decision is no longer pending.
        ctx.runlog.emit("abort_complete", victim="lo", decision=decision)
        assert flight_record(ctx, "again")["pending_decisions"] == []

    def test_snapshot_includes_gate_and_timeseries_state(self):
        ctx = make_context(v100_server, 2, seed=7,
                           timeseries_interval_ms=5.0)
        policy = SwitchFlowPolicy(ctx)
        ctx.engine.run(until=12.0)
        snapshot = flight_record(ctx, "sanitization-error", policy=policy)
        assert set(snapshot["gates"]) == \
            {gpu.name for gpu in ctx.machine.gpus}
        for state in snapshot["gates"].values():
            assert state == {"holder": None, "waiting": []}
        assert len(snapshot["timeseries_windows"]) == 2

    def test_dump_requires_opt_in(self):
        ctx = make_context(v100_server, 1, seed=7)
        assert dump_flight_record(ctx, "deadlock-abort") is None

    def test_dump_writes_json_into_flight_dir(self, tmp_path):
        ctx = make_context(v100_server, 1, seed=7)
        emit_decision(ctx.runlog, "preempt", job="hi", victim="lo")
        with use_options(RunOptions(out=tmp_path / "run")):
            path = dump_flight_record(ctx, "sanitization-error")
        assert path is not None and path.exists()
        assert path.parent == tmp_path / "run" / "flight"
        payload = json.loads(path.read_text())
        assert payload["reason"] == "sanitization-error"
        assert payload["pending_decisions"]

    def test_explicit_path_wins_over_out(self, tmp_path):
        ctx = make_context(v100_server, 1, seed=7)
        target = tmp_path / "dump.json"
        with use_options(RunOptions(out=tmp_path / "run")):
            assert dump_flight_record(ctx, "x", path=target) == target
        assert json.loads(target.read_text())["reason"] == "x"
        assert not (tmp_path / "run").exists()


class TestCli:
    def test_why_over_a_workload(self, capsys):
        code = main(["why", "victim", "--experiment", "preemption",
                     "--quick", "--cell", "1"])
        text = capsys.readouterr().out
        assert code == 0
        assert "[preempt]" in text
        assert "victim: victim" in text

    def test_list_filters_by_kind(self, capsys):
        code = main(["list", "--experiment", "preemption", "--quick",
                     "--cell", "1", "--kind", "admit"])
        text = capsys.readouterr().out
        assert code == 0
        assert text.count("[admit]") == 2

    def test_why_over_a_log_file(self, tmp_path, capsys):
        runlog = RunLog()
        emit_decision(runlog, "admit", job="a", chosen="gpu0")
        log = tmp_path / "run.jsonl"
        runlog.write(log)
        assert main(["why", "a", "--log", str(log)]) == 0
        assert "[admit]" in capsys.readouterr().out

    def test_unknown_job_exits_nonzero(self, capsys):
        code = main(["why", "nobody", "--experiment", "preemption",
                     "--quick", "--cell", "1"])
        assert code == 1
        assert "no decision found" in capsys.readouterr().out

    def test_log_and_workload_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["why", "a", "--log", str(tmp_path / "x.jsonl"),
                  "--experiment", "preemption"])
        with pytest.raises(SystemExit):
            main(["list"])

    @pytest.mark.parametrize("argv, flag", [
        (["list", "--experiment", "nope"], "--experiment"),
        (["list", "--experiment", "preemption", "--quick", "--cell", "7"],
         "--cell"),
    ])
    def test_bad_experiment_or_cell_exits_two(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{flag}: ")
        assert captured.err.count("\n") == 1
