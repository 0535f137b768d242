"""Tests for the windowed time-series sampler (repro.obs.timeseries)."""

import pytest

from repro.core import RunOptions, RunOptionsError, make_context
from repro.hw import v100_server
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import Engine


@pytest.fixture
def rig(engine):
    metrics = MetricsRegistry(clock=lambda: engine.now)
    return engine, metrics


class TestSampling:
    def test_counter_windows_carry_deltas_and_rates(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        requests = metrics.counter("requests", "test")
        requests.inc(3)
        first = sampler.sample()
        requests.inc(5)
        second = sampler.sample()
        assert first["counters"]["requests"]["delta"] == 3.0
        assert second["counters"]["requests"]["total"] == 8.0
        assert second["counters"]["requests"]["delta"] == 5.0
        assert second["counters"]["requests"]["rate_per_ms"] == 0.5

    def test_quiet_window_has_zero_delta(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        metrics.counter("requests", "test").inc(4)
        sampler.sample()
        quiet = sampler.sample()
        assert quiet["counters"]["requests"]["delta"] == 0.0
        assert quiet["counters"]["requests"]["total"] == 4.0

    def test_histogram_quantiles_use_window_fresh_samples_only(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        latency = metrics.histogram("lat_ms", "test")
        for value in (100.0, 100.0, 100.0):
            latency.observe(value)
        sampler.sample()
        latency.observe(1.0)
        window = sampler.sample()
        entry = window["histograms"]["lat_ms"]
        # The old 100s must not leak into this window's quantiles.
        assert entry["count"] == 1
        assert entry["p50"] == entry["p99"] == 1.0

    def test_empty_histogram_window_reports_count_only(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        metrics.histogram("lat_ms", "test")
        window = sampler.sample()
        assert window["histograms"]["lat_ms"] == {"count": 0}

    def test_gauge_snapshot_is_the_level(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        depth = metrics.gauge("depth", "test")
        depth.set(7.0)
        assert sampler.sample()["gauges"]["depth"] == 7.0

    def test_labelled_series_get_distinct_tags(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        metrics.counter("tasks", "test", pool="a").inc(1)
        metrics.counter("tasks", "test", pool="b").inc(2)
        window = sampler.sample()
        assert window["counters"]["tasks{pool=a}"]["delta"] == 1.0
        assert window["counters"]["tasks{pool=b}"]["delta"] == 2.0

    def test_sampling_leaves_instruments_untouched(self, rig):
        # Zero-cost contract: the sampler keeps its marks on its own
        # side; instruments carry no sampler state.
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        counter = metrics.counter("requests", "test")
        counter.inc(2)
        before = vars(counter).copy()
        sampler.sample()
        assert vars(counter) == before


class TestRingBuffer:
    def test_capacity_bounds_retained_windows(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0,
                                    capacity=3)
        counter = metrics.counter("requests", "test")
        for _ in range(5):
            counter.inc(1)
            sampler.sample()
        assert len(sampler.windows) == 3
        # Oldest windows dropped, but totals stay cumulative.
        totals = [w["counters"]["requests"]["total"]
                  for w in sampler.recent_rows()]
        assert totals == [3.0, 4.0, 5.0]

    def test_invalid_construction_rejected(self, rig):
        engine, metrics = rig
        with pytest.raises(ValueError):
            TimeSeriesSampler(engine, metrics, interval_ms=0.0)
        with pytest.raises(ValueError):
            TimeSeriesSampler(engine, metrics, interval_ms=10.0, capacity=0)


class TestLifecycle:
    def test_start_samples_on_the_engine_clock(self, rig):
        engine, metrics = rig
        metrics.counter("requests", "test").inc(1)
        sampler = TimeSeriesSampler(engine, metrics,
                                    interval_ms=10.0).start()
        engine.run(until=35.0)
        assert [w["t_ms"] for w in sampler.windows] == [10.0, 20.0, 30.0]

    def test_stop_cancels_the_periodic(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics,
                                    interval_ms=10.0).start()
        engine.run(until=25.0)
        sampler.stop()
        engine.run(until=100.0)
        assert len(sampler.windows) == 2

    def test_start_is_idempotent(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        sampler.start()
        sampler.start()
        engine.run(until=15.0)
        assert len(sampler.windows) == 1


class TestQueries:
    def test_series_and_tags(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        counter = metrics.counter("requests", "test")
        depth = metrics.gauge("depth", "test")
        counter.inc(2)
        depth.set(1.0)
        sampler.sample()
        counter.inc(3)
        depth.set(4.0)
        engine.run(until=10.0)
        sampler.sample()
        assert sampler.tags() == ["depth", "requests"]
        assert sampler.series("requests", field="delta") == [
            (0.0, 2.0), (10.0, 3.0)]
        assert sampler.series("depth") == [(0.0, 1.0), (10.0, 4.0)]

    def test_chrome_counters_tracks(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        metrics.counter("requests", "test", job="a").inc(5)
        metrics.gauge("depth", "test").set(2.0)
        latency = metrics.histogram("lat_ms", "test")
        latency.observe(3.0)
        sampler.sample()
        tracks = sampler.chrome_counters()
        assert tracks["requests (per ms)"] == [(0.0, {"job=a": 0.5})]
        assert tracks["depth"] == [(0.0, {"all": 2.0})]
        assert tracks["lat_ms (p95)"] == [(0.0, {"all": 3.0})]

    def test_render_legend_names_the_columns(self, rig):
        engine, metrics = rig
        sampler = TimeSeriesSampler(engine, metrics, interval_ms=10.0)
        metrics.counter("requests", "test", job="a").inc(5)
        sampler.sample()
        text = sampler.render()
        assert "c1 = requests{job=a} (delta per window)" in text
        assert "(no windows sampled)" in TimeSeriesSampler(
            engine, metrics, interval_ms=10.0).render()


class TestAttach:
    def test_context_attach_arms_a_sampler(self):
        ctx = make_context(v100_server, 1, seed=7, timeseries_interval_ms=5.0)
        assert ctx.timeseries is not None
        ctx.metrics.counter("requests", "test").inc(1)
        ctx.engine.run(until=12.0)
        assert len(ctx.timeseries.windows) == 2

    def test_double_attach_rejected(self):
        ctx = make_context(v100_server, 1, seed=7)
        ctx.attach_timeseries(interval_ms=5.0)
        with pytest.raises(RuntimeError):
            ctx.attach_timeseries(interval_ms=5.0)

    # The run-options attach (runner --timeseries), formerly read from
    # the environment.
    def test_env_attach(self):
        ctx = make_context(v100_server, 1, seed=7)
        RunOptions.parse(timeseries="25:64").attach(ctx, policy=None)
        sampler = ctx.timeseries
        assert sampler.interval_ms == 25.0
        assert sampler.capacity == 64

    def test_env_attach_noop_without_variable(self):
        ctx = make_context(v100_server, 1, seed=7)
        RunOptions().attach(ctx, policy=None)
        assert ctx.timeseries is None

    def test_env_attach_defers_to_explicit_sampler(self):
        ctx = make_context(v100_server, 1, seed=7)
        explicit = ctx.attach_timeseries(interval_ms=5.0)
        RunOptions.parse(timeseries="25").attach(ctx, policy=None)
        assert ctx.timeseries is explicit
        assert ctx.timeseries.interval_ms == 5.0

    def test_env_attach_rejects_malformed_spec(self):
        with pytest.raises(RunOptionsError, match="--timeseries"):
            RunOptions.parse(timeseries="fast")
