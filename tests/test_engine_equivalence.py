"""Engine equivalence: the calendar engine == the heap oracle.

:class:`~repro.sim.heap_engine.HeapEngine` keeps the agenda in one
explicit (time, priority, sequence, event) heap. These tests run the
*same* workload on both event loops and require bit-identical
observable behaviour: execution log, final clock, trace rows and
run-log records.
"""

from unittest import mock

import pytest

from repro.baselines import MultiThreadedTF
from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    make_context,
)
from repro.core.switchflow import SwitchFlowPolicy
from repro.faults import FaultPlan
from repro.hw import v100_server
from repro.models import get_model
from repro.sim import Engine
from repro.sim.errors import Interrupted
from repro.sim.heap_engine import HeapEngine
from repro.workloads import JobSpec, run_colocation

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


def context_on(engine_cls, *args, **kwargs):
    """``make_context`` with ``engine_cls`` as the context's event loop.

    ``mock.patch`` rather than the ``monkeypatch`` fixture: the
    hypothesis-driven tests build many contexts per test function.
    """
    with mock.patch("repro.core.context.Engine", engine_cls):
        return make_context(*args, **kwargs)


# ---------------------------------------------------------------------------
# Randomized micro-workloads straight on the engine
# ---------------------------------------------------------------------------
def run_program(engine_cls, program, horizons=()):
    """Execute a little process zoo; return the observable transcript.

    ``program`` is a list of per-process instruction lists; each
    instruction is ``(delay, signal_index, victim)`` — wait ``delay``
    ms, then (optionally) succeed a shared event that other processes
    may be waiting on. ``signal_index`` may also be ``None`` (pure
    timeout) or negative (wait on event ``-signal_index - 1`` instead
    of timing out), which exercises the due-now FIFO against the heap.
    A ``victim`` that is not ``None`` then interrupts process
    ``victim``, which exercises the URGENT lane; an interrupted process
    logs the interrupt and goes on with its next instruction. A
    negative or NaN ``delay`` must be rejected when the timeout is made;
    the process logs the rejection and goes on.

    The run goes in ``run(until=h)`` chunks, one per horizon, which
    snap the clock to each horizon between chunks, before it runs to
    quiescence.
    """
    engine = engine_cls()
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
            log.append(("horizon", engine.now, engine.peek()))
    engine.run(until=done)
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
def test_engine_matches_heap_oracle(program, horizons):
    assert (run_program(Engine, program, horizons)
            == run_program(HeapEngine, program, horizons))


def test_fixed_program_equivalence():
    # Deterministic fallback covering the same ground as the property
    # test: ties at one timestamp, immediate wakeups, waits on events
    # fired by other processes, interrupts and horizon chunks.
    program = [
        [(0.0, 1, None), (5.0, None, 2), (0.0, 2, None)],
        [(0.0, -1, None), (0.0, 0, None), (float("nan"), None, None)],
        [(5.0, None, None), (0.0, -3, 3), (1.0, None, None)],
        [(0.0, -2, None), (-1.0, 1, None), (2.0, 1, 0)],
    ]
    horizons = (0.0, 3.0, 5.0)
    assert (run_program(Engine, program, horizons)
            == run_program(HeapEngine, program, horizons))


# ---------------------------------------------------------------------------
# Full simulation runs
# ---------------------------------------------------------------------------
def colocation_transcript(engine_cls, policy_factory, jobs, seed):
    ctx = context_on(engine_cls, v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0).name
    specs = [
        JobSpec(job=JobHandle(name=name, model=get_model(model),
                              batch=batch, training=training,
                              priority=priority, preferred_device=gpu),
                iterations=iterations, start_delay_ms=delay)
        for name, model, batch, training, priority, iterations, delay
        in jobs]
    result = run_colocation(ctx, policy_factory, specs)
    stats = {name: (s.iterations, tuple(s.iteration_times_ms), s.crashed)
             for name, s in result.stats.items()}
    return (ctx.tracer.to_rows(), ctx.runlog.records, ctx.engine.now,
            stats)


WORKLOADS = {
    "multithreaded": (MultiThreadedTF, [
        ("a", "MobileNetV2", 8, True, PRIORITY_LOW, 3, 0.0),
        ("b", "ResNet50", 8, False, PRIORITY_LOW, 3, 10.0),
    ]),
    "switchflow-preempting": (SwitchFlowPolicy, [
        ("bg", "ResNet50", 8, True, PRIORITY_LOW, 4, 0.0),
        ("fg", "MobileNetV2", 8, False, PRIORITY_HIGH, 3, 30.0),
    ]),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [3, 11])
def test_colocation_identical_under_all_agendas(workload, seed):
    policy_factory, jobs = WORKLOADS[workload]
    oracle = colocation_transcript(HeapEngine, policy_factory, jobs, seed)
    engine = colocation_transcript(Engine, policy_factory, jobs, seed)
    assert engine[2] == oracle[2]   # final clock
    assert engine[0] == oracle[0]   # every trace span, in order
    assert engine[1] == oracle[1]   # every run-log record
    assert engine[3] == oracle[3]   # per-job stats


# ---------------------------------------------------------------------------
# Fault injection must preserve the equivalence: the injector draws
# from named RNG streams at hook sites, and site call order is part of
# the engine transcript — so an identical FaultPlan + seed must break
# things identically under every agenda.
# ---------------------------------------------------------------------------
def faulted_transcript(engine_cls, plan_payload, seed):
    plan = FaultPlan.from_dict(plan_payload)
    ctx = context_on(engine_cls, v100_server, 2, seed=seed,
                     fault_plan=plan)
    gpu = ctx.machine.gpu(0).name
    specs = [
        JobSpec(job=JobHandle(name="bg", model=get_model("ResNet50"),
                              batch=8, training=True,
                              priority=PRIORITY_LOW,
                              preferred_device=gpu),
                iterations=4),
        JobSpec(job=JobHandle(name="fg", model=get_model("MobileNetV2"),
                              batch=8, training=False,
                              priority=PRIORITY_HIGH,
                              preferred_device=gpu),
                iterations=3, start_delay_ms=30.0),
    ]
    result = run_colocation(ctx, SwitchFlowPolicy, specs)
    stats = {name: (s.iterations, tuple(s.iteration_times_ms), s.crashed)
             for name, s in result.stats.items()}
    return (ctx.tracer.to_rows(), ctx.runlog.records, ctx.engine.now,
            stats)


FAULT_PLANS = {
    "mixed": {
        "faults": [
            {"kind": "kernel_slowdown", "trigger": {"every_n": 9},
             "factor": 1.5},
            {"kind": "kernel_stall", "trigger": {"probability": 0.05},
             "stall_ms": 1.0},
            {"kind": "transfer_fail", "trigger": {"probability": 0.5}},
            {"kind": "device_oom", "trigger": {"at_ms": 120.0},
             "fraction": 0.9, "duration_ms": 40.0},
            {"kind": "spurious_preempt", "trigger": {"every_ms": 90.0}},
            {"kind": "job_crash", "trigger": {"probability": 0.03}},
        ],
    },
    "crash-on-preempt": {
        "faults": [{"kind": "job_crash", "trigger": {"probability": 1.0},
                    "on": "preempt"}],
        "recovery": {"checkpoint_interval": 2, "restart_delay_ms": 5.0},
    },
}


@pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS))
@pytest.mark.parametrize("seed", [3, 11])
def test_faulted_colocation_identical_under_all_agendas(plan_name,
                                                        seed):
    payload = FAULT_PLANS[plan_name]
    oracle = faulted_transcript(HeapEngine, payload, seed)
    engine = faulted_transcript(Engine, payload, seed)
    assert engine[2] == oracle[2]   # final clock
    assert engine[0] == oracle[0]   # every trace span, in order
    assert engine[1] == oracle[1]   # every run-log record
    assert engine[3] == oracle[3]   # per-job stats


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
@settings(max_examples=8, deadline=None)
@given(
    stall_p=st.floats(min_value=0.0, max_value=0.2),
    slowdown_n=st.integers(min_value=3, max_value=40),
    transfer_p=st.floats(min_value=0.0, max_value=1.0),
    preempt_ms=st.floats(min_value=40.0, max_value=400.0),
    crash_on_preempt=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_fault_plans_preserve_equivalence(stall_p, slowdown_n,
                                                 transfer_p, preempt_ms,
                                                 crash_on_preempt, seed):
    payload = {
        "faults": [
            {"kind": "kernel_stall", "trigger": {"probability": stall_p},
             "stall_ms": 1.0},
            {"kind": "kernel_slowdown",
             "trigger": {"every_n": slowdown_n}, "factor": 1.5},
            {"kind": "transfer_fail",
             "trigger": {"probability": transfer_p}},
            {"kind": "spurious_preempt",
             "trigger": {"every_ms": preempt_ms}},
            {"kind": "job_crash", "trigger": {"probability": 1.0},
             "on": "preempt"} if crash_on_preempt else
            {"kind": "job_crash", "trigger": {"probability": 0.02}},
        ],
        "recovery": {"restart_delay_ms": 5.0},
    }
    assert (faulted_transcript(Engine, payload, seed)
            == faulted_transcript(HeapEngine, payload, seed))


# ---------------------------------------------------------------------------
# Two-node cluster workloads: the topology layer (multi-hop routes,
# route-cost migration targets, cross-node state transfers) must be as
# engine-independent as everything below it. Preemptions here force both
# same-node and cross-node migrations into the transcript.
# ---------------------------------------------------------------------------
def cluster_transcript(engine_cls, seed, fg_delays=(500.0, 520.0),
                       fault_payload=None):
    from repro.hw import v100_cluster

    plan = (FaultPlan.from_dict(fault_payload)
            if fault_payload is not None else None)
    ctx = context_on(engine_cls, v100_cluster, 2, 2, seed=seed,
                     fault_plan=plan)
    machine = ctx.machine
    specs = [
        JobSpec(job=JobHandle(name=f"bg{i}", model=get_model("ResNet50"),
                              batch=16, training=True,
                              priority=PRIORITY_LOW,
                              preferred_device=gpu.name),
                iterations=100_000, background=True)
        for i, gpu in enumerate(machine.gpus)
    ] + [
        JobSpec(job=JobHandle(name=f"fg{i}", model=get_model("MobileNetV2"),
                              batch=1, training=False,
                              priority=PRIORITY_HIGH,
                              preferred_device=machine.gpus[i].name),
                iterations=3, start_delay_ms=delay)
        for i, delay in enumerate(fg_delays)]
    result = run_colocation(ctx, SwitchFlowPolicy, specs)
    stats = {name: (s.iterations, tuple(s.iteration_times_ms), s.crashed)
             for name, s in result.stats.items()}
    return (ctx.tracer.to_rows(), ctx.runlog.records, ctx.engine.now,
            stats)


@pytest.mark.parametrize("seed", [3, 17])
def test_cluster_colocation_identical_under_all_agendas(seed):
    oracle = cluster_transcript(HeapEngine, seed)
    # The scenario must actually exercise the topology layer: at least
    # one multi-hop (cross-node) state transfer in the run log.
    assert any(r.get("hops", 0) > 1 for r in oracle[1]
               if r.get("event") == "state_transfer_start")
    engine = cluster_transcript(Engine, seed)
    assert engine[2] == oracle[2]   # final clock
    assert engine[0] == oracle[0]   # every trace span, in order
    assert engine[1] == oracle[1]   # every run-log record
    assert engine[3] == oracle[3]   # per-job stats


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    delay0=st.floats(min_value=0.0, max_value=800.0),
    gap=st.floats(min_value=0.0, max_value=200.0),
    transfer_p=st.floats(min_value=0.0, max_value=0.6),
    preempt_ms=st.floats(min_value=80.0, max_value=600.0),
)
def test_random_cluster_workloads_preserve_equivalence(seed, delay0, gap,
                                                       transfer_p,
                                                       preempt_ms):
    payload = {
        "faults": [
            {"kind": "transfer_fail",
             "trigger": {"probability": transfer_p}},
            {"kind": "spurious_preempt",
             "trigger": {"every_ms": preempt_ms}},
        ],
        "recovery": {"restart_delay_ms": 5.0},
    }
    delays = (delay0, delay0 + gap)
    assert (cluster_transcript(Engine, seed, fg_delays=delays,
                               fault_payload=payload)
            == cluster_transcript(HeapEngine, seed, fg_delays=delays,
                                  fault_payload=payload))


# ---------------------------------------------------------------------------
# Engine internals: the calendar buckets and the FIFOs of events due
# now have edge cases (large buckets, appends while draining, re-entry
# after a horizon) that generic workloads may not hit reliably.
# ---------------------------------------------------------------------------
class TestArrayCoreEdges:

    def test_event_storm_grows_past_initial_capacity(self):
        # Thousands of same-time events share one calendar bucket;
        # ordering must stay schedule order.
        engine = Engine()
        log = []
        for index in range(5000):
            engine.timeout(1.0).callbacks.append(
                lambda _e, i=index: log.append(i))
        engine.run()
        assert log == list(range(5000))
        assert engine.now == 1.0

    def test_immediate_lane_swap_cycling_with_interleaved_appends(self):
        # Each callback appends a new event due now while the due FIFO
        # drains, so three chains interleave through it. The drain
        # order must match the heap oracle bit for bit.
        def run(engine_cls):
            engine = engine_cls()
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
            assert len(log) == 3 * 201
            assert engine.now == 0.0
            return log

        assert run(Engine) == run(HeapEngine)

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

    def test_urgent_at_now_preempts_mid_slice(self):
        # An URGENT event scheduled *while the current slice drains*
        # must run before the remaining NORMAL events of that slice.
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

    def test_step_and_peek_drive_array_core(self):
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

    def test_pooled_timeouts_recycle_without_crosstalk(self):
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


# ---------------------------------------------------------------------------
# Serving front-end equivalence
# ---------------------------------------------------------------------------
def serving_transcript(engine_cls, seed):
    """Full serving workload transcript on one event loop."""
    from repro.serving import (SLOTarget, ServedModelSpec, make_trace,
                               run_serving)

    ctx = context_on(engine_cls, v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0).name
    trace = make_trace(ctx.rng, "serve", "bursty", 40.0, 1_200.0)
    served = ServedModelSpec(
        job=JobHandle(name="serve", model=get_model("MobileNetV2"),
                      batch=4, training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu),
        trace=trace, max_batch=4, batch_timeout_ms=5.0,
        queue_capacity=16, shed_policy="drop-oldest",
        slo=SLOTarget(p99_ms=250.0))
    background = JobSpec(
        job=JobHandle(name="train", model=get_model("ResNet50"),
                      batch=16, training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu),
        iterations=100_000, background=True)
    result = run_serving(ctx, SwitchFlowPolicy, [served], [background])
    stream = result.served("serve")
    requests = tuple(
        (r.rid, r.arrival_ms, r.admitted_ms, r.dispatched_ms,
         r.completed_ms, r.shed_reason, r.batch_id)
        for r in stream.requests)
    return (ctx.tracer.to_rows(), ctx.runlog.records, ctx.engine.now,
            requests)


@pytest.mark.parametrize("seed", [0, 7])
def test_serving_identical_under_all_agendas(seed):
    """The serving workload (queue events, batching timeouts, preemption)
    must be bit-identical on the engine and the heap oracle."""
    assert (serving_transcript(Engine, seed)
            == serving_transcript(HeapEngine, seed))
