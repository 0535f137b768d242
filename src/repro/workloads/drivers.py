"""Job drivers: the processes that push work through the policies.

A driver owns one job end-to-end: registration, the per-iteration loop,
crash handling, and stats. Two loop shapes exist:

* **pipelined** — tf.data semantics: a producer process runs the CPU
  input pipeline into a small prefetch buffer while the consumer runs
  compute stages, re-acquiring the device after any preemption-induced
  abort (SwitchFlow / multi-threaded TF / MPS).
* **fused** — session-based time slicing: each iteration executes CPU
  stage then GPU stage atomically inside the machine-wide slice.
"""

from __future__ import annotations

from typing import Optional

from repro.core.job import JobHandle
from repro.core.policy import SchedulingPolicy
from repro.faults.recovery import InjectedJobCrash, backoff_ms
from repro.hw.memory import OutOfMemoryError
from repro.sim.events import Event
from repro.sim.resources import Store

PREFETCH_DEPTH = 2


class JobDriver:
    """Runs one job under a policy for a fixed number of iterations.

    The lifecycle (register, ``job_*`` records, crash handling,
    unregister) lives in :meth:`_main`; :meth:`_body` is the work
    between register and unregister, which a subclass may replace.
    """

    #: Prefix of the driver process's name.
    role = "driver"

    def __init__(self, policy: SchedulingPolicy, job: JobHandle,
                 iterations: int, start_delay_ms: float = 0.0,
                 request_interval_ms: Optional[float] = None,
                 stop_event: Optional[Event] = None) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.policy = policy
        self.ctx = policy.ctx
        self.job = job
        self.iterations = iterations
        self.start_delay_ms = start_delay_ms
        # Open-loop inference: request i arrives at start + i*interval;
        # latency then includes queueing. None = closed loop.
        self.request_interval_ms = request_interval_ms
        # Optional external stop signal (e.g. "background job runs until
        # the foreground stream completes").
        self.stop_event = stop_event
        self.process = None
        self._metrics = self.ctx.metrics
        self._runlog = self.ctx.runlog
        # Restart-from-checkpoint state (active only under fault
        # injection): the first iteration a restart resumes from, and
        # how many restarts this job has already consumed.
        self._checkpoint = 0
        self._restarts = 0

    # ------------------------------------------------------------------
    def start(self):
        """Spawn the driver process; returns it (an awaitable event)."""
        self.process = self.ctx.engine.process(
            self._main(), name=f"{self.role}/{self.job.name}")
        return self.process

    def _stopped(self) -> bool:
        return self.stop_event is not None and self.stop_event.triggered

    @property
    def kind(self) -> str:
        """The ``kind`` its ``job_started`` record carries."""
        return self.job.kind

    def _main(self):
        if self.start_delay_ms > 0:
            yield self.ctx.engine.timeout(self.start_delay_ms)
        try:
            self.policy.register_job(self.job)
        except OutOfMemoryError as exc:
            self._crashed(str(exc), "register")
            return
        self.job.stats.started_at = self.ctx.engine.now
        self._runlog.emit("job_started", job=self.job.name,
                          model=self.job.model.name,
                          device=self.job.assigned_device,
                          priority=self.job.priority,
                          kind=self.kind)
        try:
            yield from self._body()
        except (OutOfMemoryError, InjectedJobCrash) as exc:
            self._crashed(str(exc), "run")
        finally:
            self.job.stats.finished_at = self.ctx.engine.now
            self._runlog.emit(
                "job_finished", job=self.job.name,
                iterations=len(self.job.stats.iteration_times_ms),
                crashed=self.job.stats.crashed)
            self.policy.unregister_job(self.job)

    def _crashed(self, reason: str, phase: str) -> None:
        """The job died at ``phase`` (``register`` or ``run``)."""
        self._runlog.emit("job_crashed", job=self.job.name,
                          reason=reason, phase=phase)
        self.policy.on_job_crashed(self.job, reason)

    def _body(self):
        """Run the iteration loop; crashes restart from the checkpoint.

        Without a fault injector attached this is exactly the old
        single-attempt behavior: the first crash propagates. With one,
        the job restarts from its last checkpointed iteration after a
        capped-exponential delay, up to ``recovery.max_restarts`` times.
        """
        engine = self.ctx.engine
        while True:
            try:
                if self.policy.fused_sessions:
                    yield from self._fused_loop(self._checkpoint)
                else:
                    yield from self._pipelined_loop(self._checkpoint)
                return
            except (OutOfMemoryError, InjectedJobCrash) as exc:
                injector = self.ctx.faults
                if injector is None or (self._restarts
                                        >= injector.recovery.max_restarts):
                    raise
                self._restarts += 1
                crashed_at = engine.now
                kind = ("job_crash" if isinstance(exc, InjectedJobCrash)
                        else "oom")
                self._runlog.emit(
                    "job_restarting", job=self.job.name,
                    reason=str(exc), restart=self._restarts,
                    from_iteration=self._checkpoint)
                recovery = injector.recovery
                yield engine.timeout(backoff_ms(
                    self._restarts - 1, recovery.restart_delay_ms,
                    16 * recovery.restart_delay_ms))
                injector.record_recovery(
                    kind, engine.now - crashed_at, job=self.job.name,
                    restart=self._restarts,
                    from_iteration=self._checkpoint)

    def _maybe_crash(self) -> None:
        """Raise an injected crash if the plan demands one.

        Only consulted at iteration starts — the job's safe points: no
        gate held, no run in flight — so injected crashes can never
        corrupt the invariants the sanitizer checks.
        """
        injector = self.ctx.faults
        if injector is None:
            return
        reason = injector.crash_requested(self.job.name)
        if reason is not None:
            raise InjectedJobCrash(self.job.name, reason)

    def _record_iteration(self, iter_start: float,
                          iteration: int) -> None:
        engine = self.ctx.engine
        self.job.stats.record_iteration(engine.now - iter_start)
        self.job.stats.iteration_spans.append((iter_start, engine.now))
        self._metrics.histogram(
            "job.iteration_ms", "end-to-end iteration latency",
            job=self.job.name).observe(engine.now - iter_start)
        injector = self.ctx.faults
        if injector is not None:
            interval = injector.recovery.checkpoint_interval
            if (iteration + 1) % interval == 0:
                self._checkpoint = iteration + 1
                self._runlog.emit("checkpoint", job=self.job.name,
                                  iteration=iteration + 1)

    def _arrival(self, stream_start: float, index: int,
                 closed_start: float):
        """When request ``index`` of the stream counts as started.

        Open loop: its scheduled arrival, waited for if still ahead, so
        backlog shows up as queueing in its latency. Closed loop:
        ``closed_start``.
        """
        if self.request_interval_ms is None:
            return closed_start
        engine = self.ctx.engine
        arrival = stream_start + index * self.request_interval_ms
        if engine.now < arrival:
            yield engine.timeout(arrival - engine.now)
        return arrival

    def _acquire_compute(self):
        """Policy acquire with the wait observed (gated or not)."""
        started = self.ctx.engine.now
        grant = yield from self.policy.acquire_compute(self.job)
        self._metrics.histogram(
            "sched.acquire_wait_ms",
            "time blocked acquiring the compute stage",
            job=self.job.name).observe(self.ctx.engine.now - started)
        return grant

    # ------------------------------------------------------------------
    # Fused sessions (time slicing)
    # ------------------------------------------------------------------
    def _fused_loop(self, start: int = 0):
        """Session-slice loop with *intra-slice* prefetch.

        The job owns both CPU and GPU for the whole slice, so while its
        GPU stage runs it legitimately preprocesses the NEXT batch on
        the CPU it exclusively holds. Across slices nothing overlaps —
        another job owns the machine then. This is the strongest
        reasonable reading of the paper's baseline; without it the
        baseline pays CPU+GPU serially and every comparison in
        Figures 8-10 would flatter SwitchFlow.
        """
        job, policy = self.job, self.policy
        session = job.session
        engine = self.ctx.engine
        data_pool = self.ctx.data_pool_for(job.name)
        stream_start = engine.now
        prefetched = start - 1  # highest iteration whose batch is ready
        for iteration in range(start, self.iterations):
            if self._stopped():
                return
            self._maybe_crash()
            iter_start = yield from self._arrival(
                stream_start, iteration - start, engine.now)
            yield from policy.acquire_pipeline(job)
            try:
                if prefetched < iteration:
                    yield from session.run_cpu_stage(data_pool, iteration)
                    prefetched = iteration
                grant = yield from self._acquire_compute()
                stages = [engine.process(
                    self._compute_once(iteration, grant),
                    name=f"{job.name}/slice-compute")]
                if iteration + 1 < self.iterations:
                    stages.append(engine.process(
                        session.run_cpu_stage(data_pool, iteration + 1),
                        name=f"{job.name}/slice-prefetch"))
                    prefetched = iteration + 1
                yield engine.all_of(stages)
            finally:
                policy.release_pipeline(job)
            self._record_iteration(iter_start, iteration)

    def _compute_once(self, iteration: int, grant):
        """One gated compute run (fused mode has no preemption)."""
        job, policy = self.job, self.policy
        try:
            run = job.session.start_gpu_stage(
                grant.pool, grant.device_name, iteration,
                preallocated=grant.preallocated)
        except OutOfMemoryError:
            policy.release_compute(job, grant, "oom")
            raise
        outcome = yield run.done
        job.session.finish_gpu_stage(run, iteration)
        policy.release_compute(job, grant, outcome)

    # ------------------------------------------------------------------
    # Pipelined sessions (tf.data prefetch semantics)
    # ------------------------------------------------------------------
    def _pipelined_loop(self, start: int = 0):
        job, policy = self.job, self.policy
        engine = self.ctx.engine
        buffer = Store(engine, capacity=PREFETCH_DEPTH)
        producer = engine.process(
            self._producer(buffer, start), name=f"prefetch/{job.name}")
        stream_start = engine.now
        try:
            for iteration in range(start, self.iterations):
                if self._stopped():
                    return
                self._maybe_crash()
                cycle_start = engine.now
                yield buffer.get()
                # Closed loop: the input-pipeline wait is part of the
                # session, as the paper's Figure 3 methodology counts.
                iter_start = yield from self._arrival(
                    stream_start, iteration - start, cycle_start)
                yield from self._compute_until_done(iteration)
                self._record_iteration(iter_start, iteration)
        finally:
            if producer.is_alive:
                producer.interrupt("driver finished")

    def _producer(self, buffer: Store, start: int = 0):
        from repro.sim.errors import Interrupted

        job, policy = self.job, self.policy
        try:
            for iteration in range(start, self.iterations):
                if self._stopped():
                    return
                yield from policy.acquire_pipeline(job)
                try:
                    yield from job.session.run_cpu_stage(
                        self.ctx.data_pool_for(job.name), iteration)
                finally:
                    policy.release_pipeline(job)
                yield buffer.put(iteration)
        except Interrupted:
            return  # consumer finished first; nothing left to prefetch

    def _compute_until_done(self, iteration: int):
        """Run the compute stage, surviving preemption-induced aborts."""
        job, policy = self.job, self.policy
        completed = set()
        while True:
            grant = yield from self._acquire_compute()
            if job.assigned_device != grant.device_name:
                # Migrated while the grant was in flight: give the gate
                # back and chase the job to its new device.
                policy.release_compute(job, grant, "stale")
                continue
            try:
                run = job.session.start_gpu_stage(
                    grant.pool, grant.device_name, iteration,
                    completed=completed, preallocated=grant.preallocated)
            except OutOfMemoryError:
                policy.release_compute(job, grant, "oom")
                raise
            outcome = yield run.done
            completed |= run.completed
            job.session.finish_gpu_stage(run, iteration)
            policy.release_compute(job, grant, outcome)
            if outcome == "completed":
                return
