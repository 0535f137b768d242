"""Worker thread pools with local queues and work stealing.

Implements the structure of the paper's Figure 1: tasks enter through a
ready queue, are dispatched to per-worker local queues, idle workers
steal from busy ones, and workers sleep when there is nothing to do.
SwitchFlow instantiates one *global* pool shared by all sessions plus a
small *temporary* pool that isolates preempted jobs (Section 3.3).

Workers burn host CPU by checking cores out of the machine's
:class:`~repro.hw.cpu.CpuDevice`, so two pools share the physical cores
— matching the paper's "total workers across pools equals core count"
invariant at the resource level.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Generator, List, Optional

from repro.sim import instrument
from repro.sim.errors import Interrupted
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import CpuDevice
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Engine
    from repro.sim.rng import RngRegistry

_task_ids = itertools.count(1)


class Task:
    """A unit of executor work (usually: execute one graph node)."""

    __slots__ = ("name", "job", "body", "cancelled", "task_id", "run_ref")

    def __init__(self, name: str, job: str,
                 body: Callable[["Worker"], Generator]) -> None:
        self.name = name
        self.job = job
        self.body = body
        self.cancelled = False
        self.task_id = next(_task_ids)

    def __repr__(self) -> str:
        flag = " cancelled" if self.cancelled else ""
        return f"<Task #{self.task_id} {self.name!r} job={self.job!r}{flag}>"


class Worker:
    """One pool worker: local FIFO queue plus a sleep/wake event."""

    def __init__(self, pool: "ThreadPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.local: Deque[Task] = deque()
        self._wakeup: Optional[Event] = None
        self.tasks_executed = 0
        self.steals = 0
        self.process = pool.engine.process(
            self._loop(), name=f"{pool.name}/worker{index}")

    @property
    def idle(self) -> bool:
        return self._wakeup is not None

    def push_front(self, tasks: List[Task]) -> None:
        """Queue tasks to run next (inexpensive-successor fast path).

        The first task of ``tasks`` ends up running last among them: the
        same LIFO stacking as pushing each task to the front in turn.
        """
        tracker = instrument.TRACKER
        if tracker is not None:
            for task in tasks:
                tracker.on_task_queued(self.pool, task)
        self.local.extendleft(tasks)
        pool = self.pool
        pool._queued += len(tasks)
        pool._observe_queue_depth()
        self._wake()

    def push_back(self, task: Task) -> None:
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.on_task_queued(self.pool, task)
        self.local.append(task)
        pool = self.pool
        pool._queued += 1
        pool._observe_queue_depth()
        self._wake()

    def _wake(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _loop(self) -> Generator:
        engine = self.pool.engine
        while True:
            task = self._take_local() or self.pool._steal(self)
            if task is None:
                self._wakeup = engine.event()
                try:
                    yield self._wakeup
                except Interrupted:
                    return  # pool shutdown
                finally:
                    self._wakeup = None
                continue
            if task.cancelled:
                continue
            tracker = instrument.TRACKER
            if tracker is not None:
                tracker.on_task_start(self.pool, task)
            self.tasks_executed += 1
            started = engine.now
            yield from task.body(self)
            self.pool._observe_task(engine.now - started)

    def _take_local(self) -> Optional[Task]:
        pool = self.pool
        local = self.local
        while local:
            task = local.popleft()
            pool._queued -= 1
            if not task.cancelled:
                pool._observe_queue_depth()
                return task
        return None


class ThreadPool:
    """A fixed set of workers executing submitted tasks."""

    def __init__(self, engine: "Engine", cpu: "CpuDevice", n_workers: int,
                 name: str = "pool",
                 rng: Optional["RngRegistry"] = None,
                 metrics: Optional["MetricsRegistry"] = None) -> None:
        if n_workers <= 0:
            raise ValueError("a pool needs at least one worker")
        self.engine = engine
        self.cpu = cpu
        self.name = name
        self.metrics = metrics
        self._rng = rng.stream(f"pool:{name}") if rng is not None else None
        self.workers: List[Worker] = [
            Worker(self, index) for index in range(n_workers)]
        self._submit_cursor = 0
        # Incremental queued-entry count (cancelled entries included,
        # matching the `queued_tasks` sum) so the depth gauge does not
        # pay an O(workers) scan per push/pop.
        self._queued = 0
        # Instruments are resolved once here: a labelled registry lookup
        # per queue operation dominated dispatch profiles.
        if metrics is not None:
            metrics.gauge("pool.workers", "workers in the pool",
                          pool=name).set(n_workers)
            self._g_depth = metrics.gauge(
                "pool.queue_depth", "queued tasks", pool=name)
            self._c_tasks = metrics.counter(
                "pool.tasks_total", "tasks executed", pool=name)
            self._c_busy = metrics.counter(
                "pool.busy_ms_total", "worker-ms spent executing tasks",
                pool=name)
            self._c_steals = metrics.counter(
                "pool.steals_total", "work steals", pool=name)
        else:
            self._g_depth = None
            self._c_tasks = None
            self._c_busy = None
            self._c_steals = None

    # ------------------------------------------------------------------
    # Observability hooks (no-ops without a registry)
    # ------------------------------------------------------------------
    def _observe_task(self, busy_ms: float) -> None:
        if self._c_tasks is not None:
            self._c_tasks.inc()
            self._c_busy.inc(busy_ms)

    def _observe_queue_depth(self) -> None:
        if self._g_depth is not None:
            self._g_depth.set(self._queued)

    def _observe_steal(self) -> None:
        if self._c_steals is not None:
            self._c_steals.inc()

    # ------------------------------------------------------------------
    def submit(self, tasks: List[Task]) -> None:
        """Dispatch tasks in order: each goes to an idle worker with an
        empty queue, else to the shortest queue.

        Each placement sees the queues left by the previous one; the
        queue-depth gauge is set once per call.
        """
        workers = self.workers
        tracker = instrument.TRACKER
        for task in tasks:
            if tracker is not None:
                tracker.on_task_queued(self, task)
            target = None
            for worker in workers:
                if worker._wakeup is not None and not worker.local:
                    target = worker
                    break
            if target is None:
                target = min(workers, key=lambda w: len(w.local))
            target.local.append(task)
            target._wake()
        self._queued += len(tasks)
        self._observe_queue_depth()

    def submit_many(self, tasks: List[Task]) -> None:
        """Breadth-first initial dispatch: round-robin across workers."""
        for task in tasks:
            worker = self.workers[self._submit_cursor % len(self.workers)]
            self._submit_cursor += 1
            worker.push_back(task)

    def cancel(self, predicate: Callable[[Task], bool]) -> int:
        """Mark matching queued tasks cancelled; running tasks drain.

        This is the paper's "abort the nodes queued in the ready queue
        and thread local queues"; it cannot stop a task a worker is
        already executing.
        """
        tracker = instrument.TRACKER
        cancelled = 0
        for worker in self.workers:
            for task in worker.local:
                if not task.cancelled and predicate(task):
                    task.cancelled = True
                    cancelled += 1
                    if tracker is not None:
                        tracker.on_task_cancelled(self, task)
        return cancelled

    def _steal(self, thief: Worker) -> Optional[Task]:
        """Steal one task from the back of another worker's queue."""
        if self._queued == 0:
            # The thief's own queue is empty, so no worker holds a task;
            # the random victim draw is skipped just as for no candidates.
            return None
        candidates = [w for w in self.workers
                      if w is not thief and len(w.local) > 0]
        if not candidates:
            return None
        if self._rng is not None:
            victim = self._rng.choice(candidates)
        else:
            victim = max(candidates, key=lambda w: len(w.local))
        while victim.local:
            task = victim.local.pop()
            self._queued -= 1
            if not task.cancelled:
                thief.steals += 1
                self._observe_steal()
                self._observe_queue_depth()
                return task
        return None

    # ------------------------------------------------------------------
    @property
    def queued_tasks(self) -> int:
        return sum(len(w.local) for w in self.workers)

    def shutdown(self) -> None:
        """Interrupt sleeping workers (end-of-simulation cleanup)."""
        for worker in self.workers:
            if worker.idle and worker.process.is_alive:
                worker.process.interrupt("shutdown")

    def __repr__(self) -> str:
        return (f"<ThreadPool {self.name!r} workers={len(self.workers)} "
                f"queued={self.queued_tasks}>")
