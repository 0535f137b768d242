"""Co-location harness: run a set of jobs under one policy, collect stats.

This is the engine room of the Figure 6 / Figure 7 / Figure 10
experiments: a background job (usually training) plus one or more
foreground jobs (usually an inference stream), all sharing a machine
under the policy being evaluated. :func:`run_drivers` is the one harness
tail: :func:`~repro.serving.frontend.run_serving` ends in it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.concurrency import finalize_concurrency
from repro.analysis.integration import enforce
from repro.core.context import RunContext
from repro.core.job import JobHandle
from repro.core.options import current_options
from repro.core.policy import SchedulingPolicy
from repro.metrics.latency import LatencySummary
from repro.metrics.throughput import JobStats
from repro.workloads.drivers import JobDriver


# Generous ceiling so a wedged experiment fails loudly instead of
# spinning forever (simulated hours, not wall time).
DEFAULT_HORIZON_MS = 3_600_000.0


@dataclass
class CollocationResult:
    """Everything an experiment needs after the simulation finishes."""

    ctx: RunContext
    stats: Dict[str, JobStats] = field(default_factory=dict)

    def job(self, name: str) -> JobStats:
        return self.stats[name]

    def latency_summary(self, name: str, warmup: int = 0) -> LatencySummary:
        samples = self.stats[name].iteration_times_ms[warmup:]
        return LatencySummary.from_samples(samples)

    def crashed_jobs(self) -> List[str]:
        return [name for name, stats in self.stats.items() if stats.crashed]


@dataclass
class JobSpec:
    """Declarative description of one driver for the harness."""

    job: JobHandle
    iterations: int
    start_delay_ms: float = 0.0
    request_interval_ms: Optional[float] = None
    #: When True, this driver keeps iterating only until every
    #: *foreground* (non-background) driver finishes.
    background: bool = False


def run_colocation(ctx: RunContext,
                   policy_factory: Callable[[RunContext], SchedulingPolicy],
                   specs: List[JobSpec],
                   horizon_ms: float = DEFAULT_HORIZON_MS
                   ) -> CollocationResult:
    """Run the co-location scenario to completion; returns the results.

    Background jobs are stopped (gracefully, at the next iteration
    boundary) once every foreground job has completed, mirroring the
    paper's methodology of measuring a foreground stream against a
    long-running background trainer.
    """
    if not specs:
        raise ValueError("no jobs to run")
    run_drivers(ctx, policy_factory, specs, horizon_ms, "colocation")
    result = CollocationResult(ctx=ctx)
    for spec in specs:
        result.stats[spec.job.name] = spec.job.stats
    return result


def run_drivers(ctx: RunContext,
                policy_factory: Callable[[RunContext], SchedulingPolicy],
                specs: List[JobSpec], horizon_ms: float, scenario: str,
                front: Optional[Callable[[SchedulingPolicy],
                                         List[JobDriver]]] = None
                ) -> List[JobDriver]:
    """Run one driver per spec, after ``front(policy)``'s, to completion.

    The active run options (runner --faults/--timeseries/--concurrency/
    --serving) attach to the context what the caller did not, before
    ``front`` builds its drivers. Processes start in order: the front
    drivers, the spec drivers, then the watchdog (same-instant events
    run in that order). Background drivers stop once every other driver
    has finished. A run still going at ``horizon_ms`` dumps a flight
    record and raises; a finished one records its jobs and policy on
    ``ctx`` and is checked by whatever analysis the options enable.
    Returns the drivers in start order.
    """
    policy = policy_factory(ctx)
    current_options().attach(ctx, policy)
    engine = ctx.engine
    stop_signal = engine.event()
    drivers = (front(policy) if front is not None else []) + [
        JobDriver(
            policy, spec.job, iterations=spec.iterations,
            start_delay_ms=spec.start_delay_ms,
            request_interval_ms=spec.request_interval_ms,
            stop_event=stop_signal if spec.background else None)
        for spec in specs]
    processes = [driver.start() for driver in drivers]
    watched = [driver.process for driver in drivers
               if driver.stop_event is None] or processes

    def _watchdog():
        yield engine.all_of(watched)
        if not stop_signal.triggered:
            stop_signal.succeed()

    engine.process(_watchdog(), name=f"{scenario}-watchdog")
    done = engine.all_of(processes)
    deadline = engine.timeout(horizon_ms)
    engine.run(until=engine.any_of([done, deadline]))
    if not done.triggered:
        # Deadlock abort: capture the flight record (open spans,
        # pending decisions, gate state, concurrency waits) before
        # anything unwinds. Both cold paths import the recorder late,
        # keeping ``python -m repro.obs.audit`` runpy-clean.
        from repro.obs.audit import dump_flight_record

        dump_flight_record(ctx, "deadlock-abort", policy=policy)
        finalize_concurrency(ctx, label="deadlock-abort")
        raise RuntimeError(
            f"{scenario} scenario exceeded {horizon_ms} simulated ms")

    jobs = [driver.job for driver in drivers]
    for job in jobs:
        if job not in ctx.jobs:
            ctx.jobs.append(job)
    ctx.policy = policy
    # Under --sanitize (the sanitize run option), verify the paper's
    # trace invariants and the session graphs; ERROR findings raise.
    label = ",".join(job.name for job in jobs)
    try:
        enforce(ctx, policy=policy,
                sessions=[job.session for job in jobs], label=label)
    except Exception:
        from repro.obs.audit import dump_flight_record

        dump_flight_record(ctx, "sanitization-error", policy=policy)
        raise
    finally:
        # Uninstall the tracker's hooks and (outside --sanitize, which
        # folds the findings into enforce's report) publish its report.
        finalize_concurrency(ctx, label=label)
    return drivers
