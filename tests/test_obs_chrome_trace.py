"""Tests for the Chrome trace-event exporter (repro.obs.chrome_trace)."""

import json

import pytest

from repro.obs import (
    tracer_to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim import Span, Tracer


@pytest.fixture
def tracer(engine):
    tracer = Tracer(engine)
    tracer.record(Span("gpu0", "kernel_a", 0.0, 10.0, {"context": "jobA"}))
    tracer.record(Span("gpu0", "kernel_b", 5.0, 15.0, {"context": "jobB"}))
    tracer.record(Span("gpu0", "kernel_c", 20.0, 25.0))
    tracer.record(Span("cpu", "decode", 0.0, 3.0))
    tracer.instant("gpu0", "preempt")
    return tracer


def events_of(payload, ph):
    return [e for e in payload["traceEvents"] if e["ph"] == ph]


class TestExport:
    def test_round_trips_through_json(self, tracer):
        payload = json.loads(json.dumps(tracer_to_chrome_trace(tracer)))
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"

    def test_complete_events_have_schema_fields(self, tracer):
        payload = tracer_to_chrome_trace(tracer)
        complete = events_of(payload, "X")
        assert len(complete) == 4
        for event in complete:
            for key in ("name", "ts", "dur", "pid", "tid", "cat"):
                assert key in event

    def test_timestamps_scaled_to_microseconds(self, tracer):
        payload = tracer_to_chrome_trace(tracer)
        kernel = next(e for e in events_of(payload, "X")
                      if e["name"] == "kernel_a")
        assert kernel["ts"] == 0.0
        assert kernel["dur"] == 10_000.0

    def test_one_process_per_lane(self, tracer):
        payload = tracer_to_chrome_trace(tracer)
        names = {e["args"]["name"]: e["pid"]
                 for e in events_of(payload, "M")
                 if e["name"] == "process_name"}
        assert set(names) == {"gpu0", "cpu"}
        assert names["gpu0"] != names["cpu"]

    def test_overlapping_spans_spread_over_rows(self, tracer):
        payload = tracer_to_chrome_trace(tracer)
        tids = {e["name"]: e["tid"] for e in events_of(payload, "X")
                if e["cat"] == "gpu0"}
        # kernel_a and kernel_b overlap -> distinct thread rows; the
        # later kernel_c reuses a freed row.
        assert tids["kernel_a"] != tids["kernel_b"]
        assert tids["kernel_c"] == 0

    def test_instant_events(self, tracer):
        payload = tracer_to_chrome_trace(tracer)
        instants = events_of(payload, "i")
        assert len(instants) == 1
        assert instants[0]["name"] == "preempt"
        assert instants[0]["s"] == "t"

    def test_meta_is_json_clean(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("lane", "x", 0.0, 1.0,
                           {"n": 3, "obj": object()}))
        payload = json.loads(json.dumps(tracer_to_chrome_trace(tracer)))
        args = events_of(payload, "X")[0]["args"]
        assert args["n"] == 3
        assert isinstance(args["obj"], str)

    def test_lane_selection(self, tracer):
        payload = tracer_to_chrome_trace(tracer, lanes=["cpu"])
        cats = {e.get("cat") for e in events_of(payload, "X")}
        assert cats == {"cpu"}

    def test_write_to_disk(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_fig2_chrome_trace_export(self, quick_cell):
        """The Figure 2 run exports to loadable chrome://tracing JSON."""
        ctx = quick_cell("fig2", 1)
        payload = json.loads(json.dumps(tracer_to_chrome_trace(ctx.tracer)))
        assert validate_chrome_trace(payload) == []
        process_rows = {event["args"]["name"]
                        for event in payload["traceEvents"]
                        if event.get("name") == "process_name"}
        # One labelled process row per device lane that recorded spans.
        for gpu in ctx.machine.gpus:
            assert gpu.lane in process_rows
        assert ctx.machine.cpu.lane in process_rows


class TestEdgeCases:
    def test_empty_run_exports_valid_payload(self, engine):
        payload = tracer_to_chrome_trace(Tracer(engine))
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"] == []

    def test_open_spans_dropped_by_default(self, engine):
        tracer = Tracer(engine)
        tracer.begin("gpu0", "stuck_kernel")
        payload = tracer_to_chrome_trace(tracer)
        assert events_of(payload, "X") == []

    def test_open_spans_exported_when_asked(self, engine):
        tracer = Tracer(engine)
        open_span = tracer.begin("gpu0", "stuck_kernel", context="jobA")
        engine.run(until=7.0)
        payload = tracer_to_chrome_trace(tracer, include_open=True)
        assert validate_chrome_trace(payload) == []
        exported = events_of(payload, "X")
        assert len(exported) == 1
        assert exported[0]["name"] == "stuck_kernel"
        assert exported[0]["dur"] == pytest.approx(7_000.0)
        assert exported[0]["args"]["open"] is True
        # Exporting does not close the span.
        assert not open_span.closed

    def test_open_span_on_unseen_lane_creates_the_lane(self, engine):
        tracer = Tracer(engine)
        tracer.begin("gpu9", "only_open_work")
        engine.run(until=1.0)
        payload = tracer_to_chrome_trace(tracer, include_open=True)
        names = {e["args"]["name"] for e in events_of(payload, "M")
                 if e["name"] == "process_name"}
        assert "gpu9" in names

    def test_zero_duration_span_becomes_instant(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("gpu0", "degenerate", 4.0, 4.0))
        payload = tracer_to_chrome_trace(tracer)
        assert events_of(payload, "X") == []
        [instant] = events_of(payload, "i")
        assert instant["name"] == "degenerate"
        assert instant["ts"] == pytest.approx(4_000.0)

    def test_unicode_metadata_round_trips(self, engine, tmp_path):
        tracer = Tracer(engine)
        tracer.record(Span("gpu0", "kernel-α", 0.0, 1.0,
                           {"job": "训练-β", "note": "café ☕"}))
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        [event] = events_of(payload, "X")
        assert event["name"] == "kernel-α"
        assert event["args"]["job"] == "训练-β"
        assert event["args"]["note"] == "café ☕"

    def test_counter_tracks_export(self, tracer):
        counters = {"gpu.util": [(0.0, {"gpu0": 0.5}),
                                 (10.0, {"gpu0": 0.9})]}
        payload = tracer_to_chrome_trace(tracer, counters=counters)
        assert validate_chrome_trace(payload) == []
        track = events_of(payload, "C")
        assert [e["ts"] for e in track] == [0.0, 10_000.0]
        assert track[0]["args"] == {"gpu0": 0.5}
        # Counter events live on their own "metrics" process row.
        lane_pids = {e["pid"] for e in events_of(payload, "X")}
        assert track[0]["pid"] not in lane_pids


class TestValidation:
    def test_flags_missing_trace_events(self):
        assert validate_chrome_trace({}) != []

    def test_flags_bad_events(self):
        payload = {"traceEvents": [
            {"ph": "Z", "pid": 1, "tid": 0, "name": "x"},
            {"ph": "X", "name": "y", "ts": 0.0},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 1.0},
        ]}
        problems = validate_chrome_trace(payload)
        assert any("unknown ph" in p for p in problems)
        assert any("missing pid/tid" in p for p in problems)
        assert any("missing name" in p for p in problems)

    def test_accepts_valid_payload(self):
        payload = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "gpu"}},
            {"ph": "X", "name": "k", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 5.0},
            {"ph": "i", "name": "mark", "pid": 1, "tid": 0, "ts": 1.0},
        ]}
        assert validate_chrome_trace(payload) == []
