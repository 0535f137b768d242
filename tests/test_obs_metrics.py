"""Tests for the metrics registry (repro.obs.metrics) and the run log."""

import json
import statistics

import numpy as np
import pytest

from repro.obs import MetricsRegistry, RunLog, merge_quantiles
from repro.obs.runlog import RunLogError


class FakeClock:
    """A settable sim clock for registry tests."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def reg(clock):
    return MetricsRegistry(clock=clock)


class TestCounter:
    def test_inc_accumulates(self, reg):
        counter = reg.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self, reg):
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1.0)

    def test_rate_per_ms(self, reg, clock):
        counter = reg.counter("c")
        counter.inc(10.0)
        clock.t = 4.0
        assert counter.rate_per_ms() == pytest.approx(2.5)

    def test_rate_at_time_zero(self, reg):
        assert reg.counter("c").rate_per_ms() == 0.0


class TestGauge:
    def test_set_and_high_water(self, reg):
        gauge = reg.gauge("g")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.max_value == 5.0

    def test_inc_dec(self, reg):
        gauge = reg.gauge("g")
        gauge.inc(3.0)
        gauge.dec()
        assert gauge.value == 2.0

    def test_time_weighted_mean(self, reg, clock):
        gauge = reg.gauge("g")
        gauge.set(4.0)          # level 4 over [0, 6)
        clock.t = 6.0
        gauge.set(1.0)          # level 1 over [6, 10)
        clock.t = 10.0
        # (4*6 + 1*4) / 10 = 2.8
        assert gauge.time_weighted_mean() == pytest.approx(2.8)

    def test_mean_at_time_zero_is_current(self, reg):
        gauge = reg.gauge("g")
        gauge.set(7.0)
        assert gauge.time_weighted_mean() == 7.0


class TestHistogram:
    def test_count_sum_mean(self, reg):
        histogram = reg.histogram("h")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(6.0)
        assert histogram.mean() == pytest.approx(2.0)

    def test_quantiles_match_numpy_reference(self, reg):
        samples = [12.0, 3.5, 27.0, 0.25, 8.0, 8.0, 19.5, 4.0, 150.0]
        histogram = reg.histogram("h")
        for value in samples:
            histogram.observe(value)
        for pct in (0, 25, 50, 75, 90, 95, 99, 100):
            assert histogram.quantile(pct) == pytest.approx(
                np.percentile(samples, pct, method="linear"))

    def test_median_matches_statistics_reference(self, reg):
        samples = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        histogram = reg.histogram("h")
        for value in samples:
            histogram.observe(value)
        assert histogram.quantile(50) == pytest.approx(
            statistics.median(samples))

    def test_empty_summary_is_zeroes(self, reg):
        summary = reg.histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0

    def test_summary_fields(self, reg):
        histogram = reg.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(
            np.percentile(range(1, 101), 50))
        assert summary["p95"] == pytest.approx(
            np.percentile(range(1, 101), 95))

    def test_sorted_cache_invalidated_by_observe(self, reg):
        histogram = reg.histogram("h")
        for value in (5.0, 1.0, 3.0):
            histogram.observe(value)
        assert histogram.quantile(100) == 5.0
        cached = histogram._sorted
        assert cached == [1.0, 3.0, 5.0]
        # A second query reuses the cached view, no re-sort.
        assert histogram.quantile(0) == 1.0
        assert histogram._sorted is cached
        histogram.observe(2.0)
        assert histogram._sorted is None
        assert histogram.quantile(50) == pytest.approx(2.5)

    def test_summary_uses_one_sorted_pass(self, reg):
        histogram = reg.histogram("h")
        for value in (9.0, 1.0, 4.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["max"] == 9.0
        assert summary["p50"] == 4.0
        assert histogram._sorted == [1.0, 4.0, 9.0]

    def test_merge_quantiles(self, reg):
        first = reg.histogram("h", shard="a")
        second = reg.histogram("h", shard="b")
        first.observe(1.0)
        first.observe(2.0)
        second.observe(3.0)
        second.observe(4.0)
        assert merge_quantiles([first, second], 50) == pytest.approx(2.5)
        assert merge_quantiles([], 50) == 0.0


class TestLabels:
    def test_labels_partition_series(self, reg):
        reg.counter("c", device="gpu0").inc(1.0)
        reg.counter("c", device="gpu1").inc(2.0)
        assert reg.value("c", device="gpu0") == 1.0
        assert reg.value("c", device="gpu1") == 2.0
        assert reg.value("c") == 3.0

    def test_label_order_is_irrelevant(self, reg):
        reg.counter("c", a="1", b="2").inc()
        reg.counter("c", b="2", a="1").inc()
        assert reg.value("c", a="1", b="2") == 2.0
        assert len(reg.get("c").series()) == 1

    def test_label_values_stringified(self, reg):
        reg.counter("c", device=0).inc()
        assert reg.value("c", device="0") == 1.0

    def test_kind_mismatch_raises(self, reg):
        reg.counter("c").inc()
        with pytest.raises(TypeError):
            reg.gauge("c")
        with pytest.raises(TypeError):
            reg.histogram("c")

    def test_all_samples_rejects_non_histogram(self, reg):
        reg.counter("c").inc()
        with pytest.raises(TypeError):
            reg.get("c").all_samples()

    def test_histogram_family_aggregates(self, reg):
        reg.histogram("h", job="a").observe(1.0)
        reg.histogram("h", job="b").observe(3.0)
        family = reg.get("h")
        assert family.total() == 2.0
        assert sorted(family.all_samples()) == [1.0, 3.0]
        assert family.quantile(50) == pytest.approx(2.0)


class TestRegistry:
    def test_value_default_for_missing(self, reg):
        assert reg.value("nope") == 0.0
        assert reg.value("nope", default=-1.0) == -1.0
        reg.counter("c", x="1").inc()
        assert reg.value("c", default=-1.0, x="2") == -1.0

    def test_value_of_histogram_is_count(self, reg):
        reg.histogram("h", job="a").observe(5.0)
        reg.histogram("h", job="a").observe(6.0)
        assert reg.value("h", job="a") == 2.0

    def test_quantile_query(self, reg):
        reg.histogram("h", job="a").observe(1.0)
        reg.histogram("h", job="b").observe(3.0)
        assert reg.quantile("h", 50) == pytest.approx(2.0)
        assert reg.quantile("h", 50, job="b") == 3.0
        assert reg.quantile("h", 50, job="zz") == 0.0
        assert reg.quantile("missing", 50) == 0.0

    def test_collectors_run_on_read(self, reg):
        pulls = []

        def collector(registry):
            pulls.append(1)
            registry.gauge("level").set(float(len(pulls)))

        reg.register_collector(collector)
        assert reg.value("level") == 1.0
        assert reg.value("level") == 2.0
        assert len(pulls) == 2

    def test_snapshot_is_json_serializable(self, reg, clock):
        reg.counter("c", device="gpu0").inc(2.0)
        reg.gauge("g").set(5.0)
        reg.histogram("h", job="a").observe(1.5)
        clock.t = 10.0
        snapshot = json.loads(json.dumps(reg.snapshot()))
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["c"]["series"][0]["labels"] == {"device": "gpu0"}
        assert snapshot["c"]["series"][0]["value"] == 2.0
        assert snapshot["g"]["series"][0]["max"] == 5.0
        assert snapshot["h"]["series"][0]["count"] == 1

    def test_render_filters_by_prefix(self, reg):
        reg.counter("sched.preemptions").inc()
        reg.counter("pool.tasks_total", pool="global").inc()
        text = reg.render(prefix="sched.")
        assert "sched.preemptions" in text
        assert "pool.tasks_total" not in text
        full = reg.render()
        assert "pool.tasks_total{pool=global}" in full


class TestRunLog:
    def test_emit_stamps_sim_time(self):
        clock = FakeClock(3.25)
        log = RunLog(clock=clock)
        record = log.emit("preempt", victim="vgg16")
        assert record == {"t_ms": 3.25, "event": "preempt",
                          "victim": "vgg16"}

    def test_non_json_values_are_reprd(self):
        log = RunLog()
        record = log.emit("x", payload={"a": 1})
        assert record["payload"] == repr({"a": 1})

    def test_filter_by_event_and_fields(self):
        log = RunLog()
        log.emit("preempt", victim="a")
        log.emit("preempt", victim="b")
        log.emit("finish", victim="a")
        assert len(log.filter("preempt")) == 2
        assert len(log.filter("preempt", victim="a")) == 1
        assert log.count("finish") == 1
        assert len(log.filter(victim="a")) == 2

    def test_jsonl_round_trips(self, tmp_path):
        log = RunLog(clock=FakeClock(1.0))
        log.emit("a", n=1)
        log.emit("b", n=2)
        path = tmp_path / "run.jsonl"
        log.write(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]

    def test_read_returns_what_write_wrote(self, tmp_path):
        log = RunLog(clock=FakeClock(1.0))
        log.emit("a", n=1)
        log.emit("b", victim="x")
        path = tmp_path / "run.jsonl"
        log.write(path)
        assert RunLog.read(path) == log.records

    def test_read_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RunLogError, match=r"run\.jsonl: cannot read"):
            RunLog.read(path)
        path.write_text('{"t_ms": 0.0, "event": "a"}\n"text"\n')
        with pytest.raises(ValueError, match=r"run\.jsonl:2: not a JSON object"):
            RunLog.read(path)

    def test_disabled_log_records_nothing(self):
        log = RunLog(enabled=False)
        assert log.emit("x") is None
        assert len(log) == 0

    def test_empty_jsonl_is_empty_string(self):
        assert RunLog().to_jsonl() == ""

    def test_write_append_mode(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = RunLog(clock=FakeClock(1.0))
        first.emit("a")
        first.write(path)
        second = RunLog(clock=FakeClock(2.0))
        second.emit("b")
        second.write(path, append=True)
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["a", "b"]

    def test_write_default_truncates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog()
        log.emit("a")
        log.write(path)
        log.write(path)
        assert len(path.read_text().splitlines()) == 1

    def test_sink_flushes_on_clean_exit(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(clock=FakeClock(1.0))
        with log.sink(path):
            log.emit("a", n=1)
            log.emit("b", n=2)
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["a", "b"]

    def test_sink_flushes_on_exception(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = RunLog(clock=FakeClock(1.0))
        with pytest.raises(RuntimeError):
            with log.sink(path):
                log.emit("before_crash")
                raise RuntimeError("simulated abort")
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] \
            == ["before_crash"]

    def test_sink_truncates_stale_artifact(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"event": "stale"}\n')
        log = RunLog()
        with log.sink(path):
            log.emit("fresh")
        events = [json.loads(line)["event"]
                  for line in path.read_text().splitlines()]
        assert events == ["fresh"]
