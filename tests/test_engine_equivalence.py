"""Engine transcripts: full workloads against recorded golden digests,
random process programs against the agenda's contract.

The engine delivers events in (time, priority, sequence) order. The
twelve workloads of :mod:`tests.golden.engine_transcripts` pin that
order end to end: every trace span, run-log record, final clock and
per-job outcome must hash to the digest recorded in
``tests/golden/engine_transcripts.json``.
"""

import math

import pytest

from repro.sim import Engine
from repro.sim.errors import Interrupted, SimulationError
from tests.golden import engine_transcripts as golden

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# Process programs straight on the engine
# ---------------------------------------------------------------------------
def run_program(program, horizons=(), drain=None):
    """Execute a little process zoo; return the observable transcript.

    ``program`` is a list of per-process instruction lists; each
    instruction is ``(delay, signal_index, victim)`` — wait ``delay``
    ms, then (optionally) succeed a shared event that other processes
    may be waiting on. ``signal_index`` may also be ``None`` (pure
    timeout) or negative (wait on event ``-signal_index - 1`` instead
    of timing out), which mixes events due now with timed ones. A
    ``victim`` that is not ``None`` then interrupts process ``victim``,
    which exercises the URGENT priority; an interrupted process logs
    the interrupt and goes on with its next instruction. A negative or
    NaN ``delay`` must be rejected when the timeout is made; the
    process logs the rejection and goes on.

    The run goes in ``run(until=h)`` chunks, one per horizon, which
    snap the clock to each horizon between chunks, before it runs to
    quiescence. Each chunk logs ``("horizon", h, now, peek())``. A
    ``drain(engine)`` callable, if given, replaces the quiescence run
    and must empty the agenda.
    """
    engine = Engine()
    n_events = len(program)
    events = [engine.event() for _ in range(n_events)]
    log = []

    def proc(pid, instructions):
        for step, (delay, signal, victim) in enumerate(instructions):
            try:
                if signal is not None and signal < 0:
                    target = events[(-signal - 1) % n_events]
                    if not target.triggered:
                        yield target
                else:
                    try:
                        timeout = engine.timeout(delay)
                    except ValueError:
                        log.append((engine.now, pid, step, "rejected"))
                        continue
                    yield timeout
                    if signal is not None:
                        event = events[signal % n_events]
                        if not event.triggered:
                            event.succeed(value=pid)
            except Interrupted as interrupt:
                log.append((engine.now, pid, step, "interrupted",
                            interrupt.cause))
                continue
            if victim is not None:
                other = processes[victim % len(processes)]
                if other.is_alive and other is not engine.active_process:
                    other.interrupt(cause=pid)
            log.append((engine.now, pid, step))

    processes = [engine.process(proc(pid, instructions), name=f"p{pid}")
                 for pid, instructions in enumerate(program)]
    # Not every process terminates (a wait on an event nobody fires);
    # run to quiescence with a horizon instead of joining them all.
    done = engine.any_of([engine.all_of(processes), engine.timeout(1e6)])
    for horizon in sorted(horizons):
        if horizon >= engine.now:
            engine.run(until=horizon)
            log.append(("horizon", horizon, engine.now, engine.peek()))
    if drain is None:
        engine.run(until=done)
    else:
        drain(engine)
        assert engine.peek() == float("inf") and done.processed
    return log, engine.now


instruction = st.tuples(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
              allow_infinity=False) | st.sampled_from([-1.0, float("nan")]),
    st.one_of(st.none(), st.integers(min_value=-8, max_value=8)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
) if HAVE_HYPOTHESIS else None


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(instruction, max_size=6), min_size=1,
                max_size=5),
       st.lists(st.floats(min_value=0.0, max_value=120.0), max_size=3))
def test_random_programs_keep_the_agenda_contract(program, horizons):
    log, final = run_program(program, horizons)
    clock = [entry[2] if entry[0] == "horizon" else entry[0]
             for entry in log] + [final]
    assert clock == sorted(clock), "the clock went backwards"
    for entry in log:
        if entry[0] == "horizon":
            _tag, horizon, now, peek = entry
            assert now == horizon
            assert peek >= horizon
            continue
        _now, pid, step, *outcome = entry
        delay, signal, _victim = program[pid][step]
        bad_delay = delay < 0 or math.isnan(delay)
        rejected = outcome == ["rejected"]
        # Waits on another process's event make no timeout at all.
        assert rejected == (bad_delay and not (signal is not None
                                               and signal < 0))


def step_until_empty(engine):
    """Drain the agenda one ``step()`` at a time; a further step on the
    empty agenda must raise and leave the clock where it is."""
    while engine.peek() != float("inf"):
        engine.step()
    now = engine.now
    with pytest.raises(SimulationError, match="empty agenda"):
        engine.step()
    assert engine.now == now


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(instruction, max_size=6), min_size=1,
                max_size=5),
       st.lists(st.floats(min_value=0.0, max_value=120.0), max_size=3))
def test_stepping_delivers_what_run_delivers(program, horizons):
    # step() and run() share one delivery loop; stepping to an empty
    # agenda must give run()'s transcript event for event.
    assert (run_program(program, horizons, drain=step_until_empty)
            == run_program(program, horizons, drain=Engine.run))


def test_fixed_program_equivalence():
    # Ties at one timestamp, immediate wakeups, waits on events fired
    # by other processes, interrupts, rejected delays and horizon
    # chunks.
    program = [
        [(0.0, 1, None), (5.0, None, 2), (0.0, 2, None)],
        [(0.0, -1, None), (0.0, 0, None), (float("nan"), None, None)],
        [(5.0, None, None), (0.0, -3, 3), (1.0, None, None)],
        [(0.0, -2, None), (-1.0, 1, None), (2.0, 1, 0)],
    ]
    horizons = (0.0, 3.0, 5.0)
    assert run_program(program, horizons) == FIXED_PROGRAM_TRANSCRIPT


# Process 1 waits on event 0, which nobody fires, so the run ends at
# the 1e6 ms quiescence horizon.
FIXED_PROGRAM_TRANSCRIPT = ([
    (0.0, 0, 0), (0.0, 3, 0), (0.0, 3, 1, "rejected"),
    ("horizon", 0.0, 0.0, 2.0),
    (2.0, 3, 2), (2.0, 0, 1, "interrupted", 3), (2.0, 0, 2),
    ("horizon", 3.0, 3.0, 5.0),
    (5.0, 2, 0), (5.0, 2, 1),
    ("horizon", 5.0, 5.0, 6.0),
    (6.0, 2, 2),
], 1e6)


# ---------------------------------------------------------------------------
# Full simulation runs against the golden digests
# ---------------------------------------------------------------------------
GOLDEN = golden.load()


def check_golden(key, transcript=None):
    if transcript is None:
        transcript = golden.workloads()[key]()
    assert golden.summarize(transcript) == GOLDEN[key], key


def test_golden_file_covers_every_workload():
    assert sorted(GOLDEN) == sorted(golden.workloads())


@pytest.mark.parametrize("workload", sorted(golden.COLOCATION))
@pytest.mark.parametrize("seed", [3, 11])
def test_colocation_identical_under_all_agendas(workload, seed):
    check_golden(f"colocation/{workload}/{seed}")


# Fault injection: an identical FaultPlan + seed must break things
# identically run after run.
@pytest.mark.parametrize("plan_name", sorted(golden.FAULT_PLANS))
@pytest.mark.parametrize("seed", [3, 11])
def test_faulted_colocation_identical_under_all_agendas(plan_name,
                                                        seed):
    check_golden(f"faulted/{plan_name}/{seed}")


# Two-node cluster: multi-hop routes, route-cost migration targets and
# cross-node state transfers.
@pytest.mark.parametrize("seed", [3, 17])
def test_cluster_colocation_identical_under_all_agendas(seed):
    transcript = golden.cluster_transcript(seed)
    # The scenario must actually exercise the topology layer: at least
    # one multi-hop (cross-node) state transfer in the run log.
    assert any(r.get("hops", 0) > 1 for r in transcript[1]
               if r.get("event") == "state_transfer_start")
    check_golden(f"cluster/{seed}", transcript)


@pytest.mark.parametrize("seed", [0, 7])
def test_serving_identical_under_all_agendas(seed):
    """The serving workload: queue events, batching timeouts and
    preemption."""
    check_golden(f"serving/{seed}")


# ---------------------------------------------------------------------------
# Agenda edge cases that generic workloads may not hit reliably: large
# same-time batches, appends while a time drains, re-entry after a
# horizon.
# ---------------------------------------------------------------------------
class TestAgendaEdges:

    def test_event_storm_keeps_schedule_order(self):
        # Thousands of same-time events; ordering must stay schedule
        # order.
        engine = Engine()
        log = []
        for index in range(5000):
            engine.timeout(1.0).callbacks.append(
                lambda _e, i=index: log.append(i))
        engine.run()
        assert log == list(range(5000))
        assert engine.now == 1.0

    def test_zero_delay_chains_interleave_round_robin(self):
        # Each callback schedules its chain's next event due now while
        # the others wait, so the three chains take turns.
        engine = Engine()
        log = []

        def chain(chain_id, step):
            log.append((chain_id, step))
            if step < 200:
                engine.timeout(0.0).callbacks.append(
                    lambda _e: chain(chain_id, step + 1))

        for chain_id in range(3):
            engine.timeout(0.0).callbacks.append(
                lambda _e, c=chain_id: chain(c, 0))
        engine.run()
        assert log == [(c, s) for s in range(201) for c in range(3)]
        assert engine.now == 0.0

    def test_horizon_reentry_resumes_pending_work(self):
        # run(until=N) snaps the clock to the horizon; a later run()
        # must still deliver events scheduled beyond it, and peek()
        # must see them in between.
        engine = Engine()
        log = []
        for when in (5.0, 15.0, 25.0):
            engine.timeout(when).callbacks.append(
                lambda _e, w=when: log.append(w))
        engine.run(until=10.0)
        assert log == [5.0]
        assert engine.now == 10.0
        assert engine.peek() == 15.0
        engine.run(until=20.0)
        assert log == [5.0, 15.0]
        engine.run()
        assert log == [5.0, 15.0, 25.0]
        assert engine.now == 25.0

    def test_urgent_at_now_runs_before_pending_normal_events(self):
        # An URGENT event scheduled while one time's events drain must
        # run before the NORMAL events left at that time.
        from repro.sim.events import URGENT

        engine = Engine()
        log = []

        def first(_event):
            log.append("first")
            urgent = engine.event()
            urgent.callbacks.append(lambda _e: log.append("urgent"))
            engine.schedule(urgent, priority=URGENT)

        engine.timeout(1.0).callbacks.append(first)
        engine.timeout(1.0).callbacks.append(lambda _e: log.append("second"))
        engine.run()
        assert log == ["first", "urgent", "second"]

    def test_step_and_peek_walk_the_agenda(self):
        engine = Engine()
        log = []
        engine.timeout(2.0).callbacks.append(lambda _e: log.append("a"))
        engine.timeout(2.0).callbacks.append(lambda _e: log.append("b"))
        engine.timeout(7.0).callbacks.append(lambda _e: log.append("c"))
        assert engine.peek() == 2.0
        engine.step()
        assert (engine.now, log) == (2.0, ["a"])
        assert engine.peek() == 2.0
        engine.step()
        assert log == ["a", "b"]
        assert engine.peek() == 7.0
        engine.step()
        assert (engine.now, log) == (7.0, ["a", "b", "c"])
        assert engine.peek() == float("inf")

    def test_timeout_chain_delivers_each_delay_and_value(self):
        # Long chains of waiter-path timeouts: each Timeout must deliver
        # its own delay and value, whatever ran before it.
        engine = Engine()
        seen = []

        def proc():
            for round_no in range(300):
                value = yield engine.timeout(0.5, value=round_no)
                seen.append((engine.now, value))

        engine.process(proc())
        engine.run()
        assert seen == [(0.5 * (i + 1), i) for i in range(300)]

    def test_rejects_exotic_priorities(self):
        from repro.sim.errors import SimulationError

        engine = Engine()
        with pytest.raises(SimulationError, match="URGENT/NORMAL"):
            engine.schedule(engine.event(), priority=7)
