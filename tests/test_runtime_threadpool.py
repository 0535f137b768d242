"""Tests for the worker thread pool: dispatch, stealing, cancellation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PRIORITY_HIGH, PRIORITY_LOW, JobHandle, make_context
from repro.core.switchflow import SwitchFlowPolicy
from repro.hw import CpuDevice, XEON_DUAL_18C, v100_server
from repro.models import get_model
from repro.runtime import Task, ThreadPool
from repro.sim import Engine, RngRegistry
from repro.workloads import JobSpec, run_colocation


@pytest.fixture
def pool_setup():
    engine = Engine()
    cpu = CpuDevice(engine, XEON_DUAL_18C)
    pool = ThreadPool(engine, cpu, n_workers=4, name="test",
                      rng=RngRegistry(0))
    return engine, cpu, pool


def make_task(engine, cpu, log, name, cost=1.0, job="j"):
    def body(worker):
        yield from cpu.execute(cost, label=name)
        log.append((engine.now, name, worker.index))

    return Task(name=name, job=job, body=body)


def test_tasks_execute_and_complete(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    for index in range(8):
        pool.submit([make_task(engine, cpu, log, f"t{index}")])
    engine.run()
    assert len(log) == 8
    # 8 tasks of 1 ms on 4 workers -> two waves.
    assert engine.now == pytest.approx(2.0)


def test_submit_prefers_idle_workers(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    for index in range(4):
        pool.submit([make_task(engine, cpu, log, f"t{index}")])
    engine.run()
    assert {entry[2] for entry in log} == {0, 1, 2, 3}


def test_submit_many_round_robins(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    pool.submit_many([make_task(engine, cpu, log, f"t{i}")
                      for i in range(4)])
    assert all(len(w.local) == 1 for w in pool.workers)
    engine.run()
    assert len(log) == 4


def test_cancel_removes_queued_tasks(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    # Saturate all workers with long tasks, then queue victims.
    for index in range(4):
        pool.submit([make_task(engine, cpu, log, f"long{index}", cost=10.0)])
    victims = [make_task(engine, cpu, log, f"victim{i}", job="victim")
               for i in range(3)]
    pool.submit_many(victims)
    engine.run(until=1.0)
    cancelled = pool.cancel(lambda task: task.job == "victim")
    assert cancelled == 3
    engine.run()
    names = {entry[1] for entry in log}
    assert not any(name.startswith("victim") for name in names)
    assert len(names) == 4


def test_cancel_cannot_stop_running_task(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    pool.submit([make_task(engine, cpu, log, "running", cost=10.0,
                           job="victim")])
    engine.run(until=1.0)
    assert pool.cancel(lambda task: task.job == "victim") == 0
    engine.run()
    assert log  # it drained to completion


def test_work_stealing_balances_load(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    # Pile every task on one worker's local queue; idle peers steal.
    tasks = [make_task(engine, cpu, log, f"t{i}") for i in range(8)]
    for task in tasks:
        pool.workers[0].push_back(task)
    engine.run()
    assert len(log) == 8
    assert engine.now < 8.0     # strictly better than serial
    assert sum(worker.steals for worker in pool.workers) > 0


def test_push_front_places_task_at_queue_head(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    worker = pool.workers[0]
    worker.push_back(make_task(engine, cpu, log, "back"))
    worker.push_front([make_task(engine, cpu, log, "front")])
    assert [task.name for task in worker.local] == ["front", "back"]
    # Several tasks stack as if pushed to the front one at a time.
    worker.push_front([make_task(engine, cpu, log, name)
                       for name in ("a", "b")])
    assert [task.name for task in worker.local] == [
        "b", "a", "front", "back"]
    engine.run()
    assert len(log) == 4


def test_shutdown_interrupts_sleeping_workers(pool_setup):
    engine, cpu, pool = pool_setup
    engine.run()
    pool.shutdown()
    engine.run()
    assert all(not worker.process.is_alive for worker in pool.workers)


def test_zero_workers_rejected(pool_setup):
    engine, cpu, _pool = pool_setup
    with pytest.raises(ValueError):
        ThreadPool(engine, cpu, 0)


# ---------------------------------------------------------------------------
# The queue count: an idle worker's steal returns at once when
# ``pool._queued`` is 0, which is exact only while it counts every entry
# held in the local queues.
# ---------------------------------------------------------------------------
_QUEUE_OPS = ("submit", "submit_many", "push_front", "cancel", "take",
              "steal", "run")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_QUEUE_OPS),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=40))
def test_queue_count_matches_local_queues(ops):
    engine = Engine()
    cpu = CpuDevice(engine, XEON_DUAL_18C)
    pool = ThreadPool(engine, cpu, n_workers=4, name="test",
                      rng=RngRegistry(0))
    names = itertools.count()
    log = []

    def tasks(count):
        return [make_task(engine, cpu, log, f"t{next(names)}", cost=0.5)
                for _ in range(count)]

    for kind, index, count in ops:
        worker = pool.workers[index]
        if kind == "submit":
            pool.submit(tasks(count))
        elif kind == "submit_many":
            pool.submit_many(tasks(count))
        elif kind == "push_front":
            worker.push_front(tasks(count))
        elif kind == "cancel":
            pool.cancel(lambda task: task.task_id % count == 0)
        elif kind == "take":
            worker._take_local()
        elif kind == "steal":
            pool._steal(worker)
        else:
            engine.run(until=engine.now + 0.25 * count)
        assert pool._queued == pool.queued_tasks
    engine.run()
    assert pool._queued == pool.queued_tasks == 0


def test_idle_wakeup_leaves_rng_untouched(pool_setup):
    engine, cpu, pool = pool_setup
    log = []
    engine.run()  # every worker goes to sleep on an empty pool
    state = pool._rng.getstate()
    pool.submit([make_task(engine, cpu, log, "only")])
    engine.run()
    assert len(log) == 1
    # The worker that ran the task looked for work again and found none.
    assert pool._rng.getstate() == state


def test_queue_count_holds_through_preempting_colocation(monkeypatch):
    steals, cancels = [], []
    steal, cancel = ThreadPool._steal, ThreadPool.cancel

    def checked_steal(pool, thief):
        assert pool._queued == pool.queued_tasks
        steals.append(pool.name)
        return steal(pool, thief)

    def checked_cancel(pool, predicate):
        cancelled = cancel(pool, predicate)
        assert pool._queued == pool.queued_tasks
        cancels.append(cancelled)
        return cancelled

    monkeypatch.setattr(ThreadPool, "_steal", checked_steal)
    monkeypatch.setattr(ThreadPool, "cancel", checked_cancel)
    ctx = make_context(v100_server, 2, seed=0)
    gpu = ctx.machine.gpu(0).name
    train = JobHandle(name="train", model=get_model("VGG16"), batch=16,
                      training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu)
    infer = JobHandle(name="infer", model=get_model("MobileNetV2"),
                      batch=1, training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu)
    run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=train, iterations=1000, background=True),
        JobSpec(job=infer, iterations=3, start_delay_ms=200.0)])
    assert train.stats.preemptions > 0
    # The preemption aborts the trainer's run through the pool's cancel
    # path; cancelled entries left in the queues are covered by the
    # random-sequence test above.
    assert cancels
    assert steals
