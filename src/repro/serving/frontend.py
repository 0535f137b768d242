"""The serving front-end: arrivals -> admission -> batches -> executor.

One :class:`ServingFrontEnd` drives one served model: an arrival
process replays the :class:`~repro.serving.arrivals.ArrivalTrace`
through the :class:`~repro.serving.admission.AdmissionQueue`, and a
dispatch process closes batches with the
:class:`~repro.serving.batcher.RequestBatcher` and materializes each
batch as one executor-subgraph run of the served model's session —
through whatever :class:`~repro.core.policy.SchedulingPolicy` governs
the machine, so under SwitchFlow a latency-bound serving batch preempts
a training job exactly like any high-priority arrival (paper §3.3).

Batching is *padded static*: the session is built at ``max_batch`` and
every dispatch pays the full-batch subgraph regardless of how many
requests rode along — the static-shape regime of real serving engines,
and what makes the batch-or-wait tradeoff real. Goodput counts actual
requests, not padding.

A front-end is a :class:`~repro.workloads.drivers.JobDriver` whose body
is arrival-driven: it inherits the job lifecycle and the compute loops,
and :func:`run_serving` finishes the run through the same harness tail
as :func:`~repro.workloads.colocation.run_colocation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.context import RunContext
from repro.core.job import JobHandle
from repro.core.policy import SchedulingPolicy
from repro.metrics.latency import LatencySummary
from repro.metrics.throughput import JobStats
from repro.serving.admission import AdmissionQueue, Request
from repro.serving.arrivals import ArrivalTrace, make_trace
from repro.serving.batcher import Batch, RequestBatcher
from repro.serving.slo import SLOTarget
from repro.workloads.colocation import (
    DEFAULT_HORIZON_MS,
    JobSpec,
    run_drivers,
)
from repro.workloads.drivers import JobDriver


@dataclass
class ServedModelSpec:
    """Declarative description of one served model for the harness."""

    job: JobHandle
    trace: ArrivalTrace
    max_batch: int = 8
    batch_timeout_ms: float = 5.0
    queue_capacity: int = 64
    shed_policy: str = "drop-newest"
    slo: Optional[SLOTarget] = None
    start_delay_ms: float = 0.0

    def resolved(self, config, rng) -> "ServedModelSpec":
        """A copy with the :class:`ServingConfig` overrides applied.

        A rate or kind override rebuilds the trace from the same named
        stream (the trace stays a pure function of seed + parameters).
        """
        if config is None:
            return self
        trace = self.trace
        if config.rate_rps is not None or config.trace_kind is not None:
            trace = make_trace(
                rng, trace.name,
                config.trace_kind or trace.kind,
                config.rate_rps or trace.rate_rps,
                trace.horizon_ms)
        slo = self.slo
        if config.slo_p99_ms is not None:
            slo = SLOTarget(
                p99_ms=config.slo_p99_ms,
                goodput_rps=slo.goodput_rps if slo is not None else 0.0)
        return ServedModelSpec(
            job=self.job, trace=trace,
            max_batch=config.max_batch or self.max_batch,
            batch_timeout_ms=(self.batch_timeout_ms
                              if config.batch_timeout_ms is None
                              else config.batch_timeout_ms),
            queue_capacity=config.queue_capacity or self.queue_capacity,
            shed_policy=config.shed_policy or self.shed_policy,
            slo=slo, start_delay_ms=self.start_delay_ms)


@dataclass
class ServingStats:
    """Everything measured about one served model's request stream."""

    job: str
    horizon_ms: float
    slo: Optional[SLOTarget] = None
    requests: List[Request] = field(default_factory=list)
    batches: List[Batch] = field(default_factory=list)
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    crashed: bool = False

    @property
    def arrived(self) -> int:
        return len(self.requests)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.requests if r.completed_ms is not None)

    @property
    def shed(self) -> int:
        return sum(1 for r in self.requests if r.shed_reason is not None)

    @property
    def shed_pct(self) -> float:
        if not self.requests:
            return 0.0
        return 100.0 * self.shed / len(self.requests)

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.requests
                if r.completed_ms is not None]

    def latency_summary(self) -> Optional[LatencySummary]:
        samples = self.latencies_ms()
        if not samples:
            return None
        return LatencySummary.from_samples(samples)

    @property
    def slo_met(self) -> int:
        """Completed requests inside the p99 budget (all, if no SLO)."""
        if self.slo is None:
            return self.completed
        return sum(1 for r in self.requests
                   if r.completed_ms is not None
                   and self.slo.met_by(r.latency_ms))

    @property
    def goodput_rps(self) -> float:
        """SLO-meeting completions per second of offered-load window."""
        if self.horizon_ms <= 0:
            return 0.0
        return 1000.0 * self.slo_met / self.horizon_ms


class ServingFrontEnd(JobDriver):
    """Runs one served model's request stream under a policy.

    One iteration is one dispatched batch; the arrival stream, not an
    iteration count, ends the run. A crash is not restarted: it sheds
    every outstanding request as ``aborted``.
    """

    role = "serving"
    kind = "serving"

    def __init__(self, policy: SchedulingPolicy,
                 spec: ServedModelSpec) -> None:
        # Each batch carries at least one request, so the trace bounds
        # the iteration count.
        super().__init__(policy, spec.job,
                         iterations=max(1, len(spec.trace.times_ms)),
                         start_delay_ms=spec.start_delay_ms)
        self.spec = spec
        self.queue = AdmissionQueue(self.ctx.engine,
                                    capacity=spec.queue_capacity,
                                    shed_policy=spec.shed_policy)
        self.batcher = RequestBatcher(self.ctx.engine, self.queue,
                                      max_batch=spec.max_batch,
                                      timeout_ms=spec.batch_timeout_ms)
        self.stats = ServingStats(job=self.job.name,
                                  horizon_ms=spec.trace.horizon_ms,
                                  slo=spec.slo)
        self._aborted = False

    def _crashed(self, reason: str, phase: str) -> None:
        super()._crashed(reason, phase)
        self.stats.crashed = True
        if phase == "run":
            self._abort_outstanding()

    # ------------------------------------------------------------------
    # Arrival side
    # ------------------------------------------------------------------
    def _arrivals(self):
        engine = self.ctx.engine
        epoch = engine.now
        job = self.job.name
        arrived = self._metrics.counter(
            "serving.requests_arrived_total",
            "open-loop requests that arrived", job=job)
        admitted = self._metrics.counter(
            "serving.requests_admitted_total",
            "requests admitted past the queue", job=job)
        for rid, t_ms in enumerate(self.spec.trace.times_ms):
            due = epoch + t_ms
            if engine.now < due:
                yield engine.timeout(due - engine.now)
            if self._aborted:
                break
            request = Request(rid=rid, arrival_ms=engine.now)
            self.stats.requests.append(request)
            arrived.inc()
            self._runlog.emit("request_arrived", job=job, req=rid)
            outcome = self.queue.offer(request)
            if outcome.evicted is not None:
                self._shed(outcome.evicted, "evicted")
            if not outcome.admitted:
                self._shed(request, "queue-full")
            else:
                admitted.inc()
                self._runlog.emit_decision(
                    "request_admit", job=job,
                    req=rid, queue_depth=self.queue.depth,
                    policy=self.spec.shed_policy)
            self._gauge_depth()
        self.queue.close()

    def _shed(self, request: Request, reason: str) -> None:
        job = self.job.name
        request.shed_reason = reason
        self.stats.shed_by_reason[reason] = \
            self.stats.shed_by_reason.get(reason, 0) + 1
        self._metrics.counter(
            "serving.requests_shed_total", "requests shed by admission",
            job=job, reason=reason).inc()
        self._runlog.emit("request_shed", job=job, req=request.rid,
                          reason=reason)
        self._runlog.emit_decision(
            "request_shed", job=job, req=request.rid,
            chosen=reason, queue_depth=self.queue.depth,
            policy=self.spec.shed_policy,
            queue_capacity=self.spec.queue_capacity)

    def _gauge_depth(self) -> None:
        self._metrics.gauge(
            "serving.queue_depth", "admission queue depth",
            job=self.job.name).set(float(self.queue.depth))

    # ------------------------------------------------------------------
    # Dispatch side
    # ------------------------------------------------------------------
    def _body(self):
        """Arrivals in their own process; batches dispatched here until
        the arrival stream ends and the queue drains."""
        engine = self.ctx.engine
        job = self.job
        engine.process(self._arrivals(), name=f"arrivals/{job.name}")
        iteration = 0
        while True:
            batch = yield from self.batcher.form()
            if batch is None:
                return
            self._maybe_crash()
            self.stats.batches.append(batch)
            self._gauge_depth()
            self._runlog.emit_decision(
                "batch_close", job=job.name,
                chosen=batch.reason, batch=batch.batch_id,
                size=len(batch), waited_ms=round(batch.wait_ms, 3),
                queue_depth=self.queue.depth,
                max_batch=self.spec.max_batch,
                timeout_ms=self.spec.batch_timeout_ms)
            self._metrics.counter(
                "serving.batches_total", "batches dispatched",
                job=job.name, reason=batch.reason).inc()
            self._metrics.histogram(
                "serving.batch_size", "requests per dispatched batch",
                job=job.name).observe(float(len(batch)))
            dispatch_start = engine.now
            yield from self._dispatch_batch(iteration)
            self._complete(batch)
            job.stats.record_iteration(engine.now - dispatch_start)
            job.stats.iteration_spans.append((dispatch_start,
                                              engine.now))
            iteration += 1

    def _dispatch_batch(self, iteration: int):
        """One batch = one session iteration (CPU stage + GPU stage).

        Honors the policy's session semantics: fused policies (time
        slicing) hold the pipeline slice across both stages; pipelined
        policies gate only the CPU stage and then run the
        preemption-surviving compute loop.
        """
        job, policy = self.job, self.policy
        session = job.session
        data_pool = self.ctx.data_pool_for(job.name)
        yield from policy.acquire_pipeline(job)
        try:
            yield from session.run_cpu_stage(data_pool, iteration)
            if policy.fused_sessions:
                grant = yield from self._acquire_compute()
                yield from self._compute_once(iteration, grant)
        finally:
            policy.release_pipeline(job)
        if not policy.fused_sessions:
            yield from self._compute_until_done(iteration)

    def _complete(self, batch: Batch) -> None:
        engine = self.ctx.engine
        job = self.job.name
        latency = self._metrics.histogram(
            "serving.request_latency_ms",
            "end-to-end request latency (arrival to completion)",
            job=job)
        queue_wait = self._metrics.histogram(
            "serving.queue_wait_ms",
            "time from arrival to batch close", job=job)
        completed = self._metrics.counter(
            "serving.requests_completed_total", "requests served",
            job=job)
        goodput = self._metrics.counter(
            "serving.goodput_total",
            "completed requests inside the SLO budget", job=job)
        slo = self.spec.slo
        for request in batch.requests:
            request.completed_ms = engine.now
            completed.inc()
            latency.observe(request.latency_ms)
            queue_wait.observe(request.queue_wait_ms)
            if slo is None or slo.met_by(request.latency_ms):
                goodput.inc()
            self._runlog.emit(
                "request_completed", job=job, req=request.rid,
                batch=batch.batch_id,
                latency_ms=round(request.latency_ms, 3))

    def _abort_outstanding(self) -> None:
        """Terminal-ize every live request after a crash, so the
        request-span invariant (arrive => complete xor shed) holds even
        on the failure path. Arrivals still pending in the trace stop
        at their next wakeup (they never "arrive", so they owe no
        terminal event)."""
        self._aborted = True
        outstanding = self.queue.drain()
        self.queue.close()
        seen = {id(request) for request in outstanding}
        for request in self.stats.requests:
            if (request.completed_ms is None
                    and request.shed_reason is None
                    and id(request) not in seen):
                outstanding.append(request)
        for request in outstanding:
            self._shed(request, "aborted")


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
@dataclass
class ServingResult:
    """Everything an experiment needs after the serving run finishes."""

    ctx: RunContext
    serving: Dict[str, ServingStats] = field(default_factory=dict)
    stats: Dict[str, JobStats] = field(default_factory=dict)

    def served(self, name: str) -> ServingStats:
        return self.serving[name]

    def latency_summary(self, name: str) -> Optional[LatencySummary]:
        return self.serving[name].latency_summary()

    def crashed_jobs(self) -> List[str]:
        crashed = [name for name, stats in self.stats.items()
                   if stats.crashed]
        crashed.extend(name for name, stats in self.serving.items()
                       if stats.crashed)
        return crashed


def run_serving(ctx: RunContext,
                policy_factory,
                served: List[ServedModelSpec],
                background: Optional[List[JobSpec]] = None,
                horizon_ms: float = DEFAULT_HORIZON_MS) -> ServingResult:
    """Run serving front-ends (plus background jobs) to completion.

    Background jobs iterate until every front-end drains, through the
    harness :func:`~repro.workloads.colocation.run_colocation` runs on
    (options attach, watchdog, horizon deadline, analysis); the
    context's serving overrides then apply to every spec.
    """
    if not served:
        raise ValueError("no served models")
    background = list(background or [])

    def frontends(policy):
        # Built after the options attach, so the context's serving
        # overrides apply to every spec.
        return [ServingFrontEnd(policy, spec.resolved(ctx.serving, ctx.rng))
                for spec in served]

    drivers = run_drivers(ctx, policy_factory, background, horizon_ms,
                          "serving", front=frontends)
    result = ServingResult(ctx=ctx)
    for frontend in drivers[:len(served)]:
        result.serving[frontend.job.name] = frontend.stats
    for spec in background:
        result.stats[spec.job.name] = spec.job.stats
    return result
