"""Tests for the discrete-event engine: clock, agenda, run modes."""

import pytest

from repro.sim import Engine, SimulationError
from repro.sim.errors import UnhandledEventFailure


def test_clock_starts_at_zero(engine):
    assert engine.now == 0.0


def test_clock_starts_at_initial_time():
    assert Engine(initial_time=5.0).now == 5.0


def test_timeout_advances_clock(engine):
    def proc(env):
        yield env.timeout(12.5)

    process = engine.process(proc(engine))
    engine.run(until=process)
    assert engine.now == 12.5


def test_run_until_number_stops_at_that_time(engine):
    def proc(env):
        yield env.timeout(100.0)

    engine.process(proc(engine))
    engine.run(until=40.0)
    assert engine.now == 40.0


def test_run_until_number_in_the_past_raises(engine):
    def proc(env):
        yield env.timeout(100.0)

    engine.process(proc(engine))
    engine.run(until=50.0)
    with pytest.raises(ValueError):
        engine.run(until=10.0)


def test_run_until_event_returns_its_value(engine):
    def proc(env):
        yield env.timeout(3.0)
        return "payload"

    process = engine.process(proc(engine))
    assert engine.run(until=process) == "payload"


def test_run_drains_agenda_without_until(engine):
    seen = []

    def proc(env):
        yield env.timeout(1.0)
        seen.append(env.now)
        yield env.timeout(2.0)
        seen.append(env.now)

    engine.process(proc(engine))
    engine.run()
    assert seen == [1.0, 3.0]


def test_events_at_same_time_run_in_schedule_order(engine):
    order = []

    def make(name):
        def proc(env):
            yield env.timeout(5.0)
            order.append(name)
        return proc

    for name in "abc":
        engine.process(make(name)(engine))
    engine.run()
    assert order == ["a", "b", "c"]


def test_peek_reports_next_event_time(engine):
    engine.timeout(9.0)
    assert engine.peek() == 9.0


def test_peek_on_empty_agenda_is_infinite(engine):
    assert engine.peek() == float("inf")


def test_step_on_empty_agenda_raises(engine):
    with pytest.raises(SimulationError):
        engine.step()


def test_negative_timeout_rejected(engine):
    with pytest.raises(ValueError):
        engine.timeout(-1.0)


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_schedule_rejects_past_or_nan_time_at_the_call_site(engine, delay):
    engine.timeout(5.0)
    engine.run(until=2.0)
    with pytest.raises(ValueError, match="cannot schedule"):
        engine.schedule(engine.event(), delay=delay)
    # Nothing reached the agenda and the clock did not move.
    assert (engine.now, engine.peek()) == (2.0, 5.0)
    engine.run()
    assert engine.now == 5.0


def test_nan_timeout_rejected(engine):
    with pytest.raises(ValueError):
        engine.timeout(float("nan"))
    assert engine.peek() == float("inf")


def test_infinite_timeout_rejected(engine):
    with pytest.raises(ValueError, match="cannot schedule"):
        engine.timeout(float("inf"))
    engine.run()
    assert (engine.now, engine.peek()) == (0.0, float("inf"))


def test_run_until_infinity_leaves_the_clock_on_the_last_event(engine):
    # A caller's own float("inf") is the unbounded horizon too, not a
    # finite one the clock lands on once the agenda drains.
    engine.timeout(5.0)
    assert engine.run(until=float("inf")) is None
    assert engine.now == 5.0


def test_run_until_nan_rejected(engine):
    engine.timeout(5.0)
    with pytest.raises(ValueError):
        engine.run(until=float("nan"))
    assert (engine.now, engine.peek()) == (0.0, 5.0)


def test_unhandled_process_failure_surfaces(engine):
    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    engine.process(bad(engine))
    with pytest.raises(UnhandledEventFailure):
        engine.run()


def test_run_until_failed_process_reraises(engine):
    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    process = engine.process(bad(engine))
    with pytest.raises(RuntimeError, match="boom"):
        engine.run(until=process)


def test_waiting_on_failed_process_propagates_into_waiter(engine):
    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            return f"caught {exc}"

    target = engine.process(bad(engine))
    waiter_proc = engine.process(waiter(engine, target))
    assert engine.run(until=waiter_proc) == "caught inner"


def test_run_until_already_triggered_event_returns_immediately(engine):
    event = engine.event()
    event.succeed(41)
    assert engine.run(until=event) == 41


def test_determinism_same_structure_same_schedule():
    def build():
        eng = Engine()
        log = []

        def proc(env, name, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((env.now, name))

        eng.process(proc(eng, "x", 1.5))
        eng.process(proc(eng, "y", 2.0))
        eng.run()
        return log

    assert build() == build()


# ---------------------------------------------------------------------------
# Clock semantics regressions: run(until=...) must leave the clock in a
# consistent state on every exit path — normal horizon, early drain,
# StopSimulation, and the _stop_on defuse path for a failed until-event.
# ---------------------------------------------------------------------------
def test_run_until_failed_event_reraises_and_keeps_clock(engine):
    watched = engine.event()

    def saboteur(env):
        yield env.timeout(3.0)
        watched.fail(RuntimeError("watched failed"))

    def bystander(env):
        yield env.timeout(10.0)

    engine.process(saboteur(engine))
    engine.process(bystander(engine))
    with pytest.raises(RuntimeError, match="watched failed"):
        engine.run(until=watched)
    # The failure was defused and surfaced to the caller; the clock sits
    # at the failure time, not at some later horizon.
    assert engine.now == 3.0
    # The engine stays usable: the remaining agenda drains normally.
    engine.run()
    assert engine.now == 10.0


def test_run_until_number_drain_early_lands_on_horizon_once(engine):

    def proc(env):
        yield env.timeout(2.0)

    engine.process(proc(engine))
    # Agenda drains at t=2, well before the horizon: clock snaps to the
    # horizon exactly once (no double advance on the idle re-run).
    engine.run(until=50.0)
    assert engine.now == 50.0
    engine.run(until=50.0)
    assert engine.now == 50.0
    engine.run(until=60.0)
    assert engine.now == 60.0


def test_run_until_event_does_not_advance_to_later_agenda(engine):
    stop = engine.event()

    def trigger(env):
        yield env.timeout(5.0)
        stop.succeed("done")

    def later(env):
        yield env.timeout(100.0)

    engine.process(trigger(engine))
    engine.process(later(engine))
    assert engine.run(until=stop) == "done"
    assert engine.now == 5.0


def test_run_until_number_resumes_pending_entry(engine):
    # An entry beyond the horizon must survive for the next run() call
    fired = []

    def proc(env):
        yield env.timeout(7.0)
        fired.append(env.now)

    engine.process(proc(engine))
    engine.run(until=4.0)
    assert engine.now == 4.0
    assert fired == []
    engine.run()
    assert fired == [7.0]


def test_run_until_timeout_waits_for_it(engine):
    # A Timeout is triggered from birth; run(until=...) must still let
    # the clock reach it rather than return its value at once.
    assert engine.run(until=engine.timeout(5.0, value="done")) == "done"
    assert engine.now == 5.0
    assert engine.peek() == float("inf")


def test_run_until_succeeded_event_runs_earlier_events_first(engine):
    order = []
    earlier = engine.event()
    earlier.callbacks.append(lambda _event: order.append("earlier"))
    earlier.succeed()
    target = engine.event().succeed("target")
    assert engine.run(until=target) == "target"
    assert order == ["earlier"]


def test_immediate_events_interleave_with_timeouts_in_order(engine):
    log = []

    def proc(env, name, delay):
        for _ in range(4):
            yield env.timeout(delay)
            log.append((env.now, name))
            # Mix in events due now between timeouts.
            done = env.event()
            done.succeed()
            yield done
            log.append((env.now, name + "+imm"))

    engine.process(proc(engine, "a", 1.0))
    engine.process(proc(engine, "b", 1.5))
    engine.process(proc(engine, "c", 1.0))
    engine.run()
    assert log == [
        (1.0, "a"), (1.0, "c"), (1.0, "a+imm"), (1.0, "c+imm"),
        (1.5, "b"), (1.5, "b+imm"),
        (2.0, "a"), (2.0, "c"), (2.0, "a+imm"), (2.0, "c+imm"),
        (3.0, "b"), (3.0, "a"), (3.0, "c"),
        (3.0, "b+imm"), (3.0, "a+imm"), (3.0, "c+imm"),
        (4.0, "a"), (4.0, "c"), (4.0, "a+imm"), (4.0, "c+imm"),
        (4.5, "b"), (4.5, "b+imm"), (6.0, "b"), (6.0, "b+imm")]


class TestEvery:
    """Engine.every: the periodic backbone of the time-series sampler."""

    def test_fires_on_the_interval(self, engine):
        fired = []
        engine.every(10.0, lambda env: fired.append(env.now))
        engine.run(until=35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_first_delay_overrides_initial_gap(self, engine):
        fired = []
        engine.every(10.0, lambda env: fired.append(env.now),
                     first_delay_ms=3.0)
        engine.run(until=25.0)
        assert fired == [3.0, 13.0, 23.0]

    def test_cancel_stops_future_firings(self, engine):
        fired = []
        handle = engine.every(10.0, lambda env: fired.append(env.now))
        engine.run(until=25.0)
        handle.cancel()
        engine.run(until=60.0)
        assert fired == [10.0, 20.0]

    def test_callback_may_cancel_itself(self, engine):
        fired = []
        handle = engine.every(5.0, lambda env: (fired.append(env.now),
                                                handle.cancel()))
        engine.run(until=50.0)
        assert fired == [5.0]

    def test_non_positive_interval_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.every(0.0, lambda env: None)
        with pytest.raises(ValueError):
            engine.every(-1.0, lambda env: None)

    def test_no_drift_over_long_horizons(self, engine):
        # Re-arming relative to the previous fire time accumulates
        # float error: after thousands of firings with a non-dyadic
        # interval, fire N visibly leaves the `anchor + N * interval`
        # grid. The engine re-arms from the absolute anchor instead, so
        # every fire lands within one ulp-scale rounding of the grid.
        interval = 0.1  # not exactly representable in binary
        fired = []
        engine.every(interval, lambda env: fired.append(env.now))
        engine.run(until=500.0)
        assert len(fired) == 4999
        worst = max(abs(t - (n + 1) * interval)
                    for n, t in enumerate(fired))
        # Cumulative re-arm drift would reach ~1e-12 and grow with the
        # horizon; absolute re-arm stays at one-multiplication rounding.
        assert worst < 1e-13

    def test_periodics_interleave_deterministically(self, engine):
        log = []
        engine.every(2.0, lambda env: log.append((env.now, "a")))
        engine.every(3.0, lambda env: log.append((env.now, "b")))
        engine.run(until=12.0)
        # At a shared time the periodic re-armed first fires first.
        assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"),
                       (6.0, "a"), (8.0, "a"), (9.0, "b"), (10.0, "a"),
                       (12.0, "b"), (12.0, "a")]
