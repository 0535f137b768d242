"""Co-location harness: run a set of jobs under one policy, collect stats.

This is the engine room of the Figure 6 / Figure 7 / Figure 10
experiments: a background job (usually training) plus one or more
foreground jobs (usually an inference stream), all sharing a machine
under the policy being evaluated.
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


def dump_flight_record(ctx, reason, policy=None):
    """Deferred :func:`repro.obs.audit.dump_flight_record` (cold abort
    path; keeps ``python -m repro.obs.audit`` runpy-clean)."""
    from repro.obs import audit

    return audit.dump_flight_record(ctx, reason, policy=policy)

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
    policy = policy_factory(ctx)
    # The active run options (runner --faults/--timeseries/
    # --concurrency/--serving) attach what the caller did not.
    current_options().attach(ctx, policy)
    stop_signal = ctx.engine.event()
    drivers: List[JobDriver] = [
        JobDriver(
            policy, spec.job, iterations=spec.iterations,
            start_delay_ms=spec.start_delay_ms,
            request_interval_ms=spec.request_interval_ms,
            stop_event=stop_signal if spec.background else None)
        for spec in specs]
    processes = [driver.start() for driver in drivers]

    foreground = [process for process, spec in zip(processes, specs,
                                                   strict=True)
                  if not spec.background]
    watched = foreground if foreground else processes

    def _watchdog():
        yield ctx.engine.all_of(watched)
        if not stop_signal.triggered:
            stop_signal.succeed()

    ctx.engine.process(_watchdog(), name="colocation-watchdog")
    done = ctx.engine.all_of(processes)
    deadline = ctx.engine.timeout(horizon_ms)
    ctx.engine.run(until=ctx.engine.any_of([done, deadline]))
    if not done.triggered:
        # Deadlock abort: capture the flight record (open spans,
        # pending decisions, gate state, concurrency waits) before
        # anything unwinds.
        dump_flight_record(ctx, "deadlock-abort", policy=policy)
        finalize_concurrency(ctx, label="deadlock-abort")
        raise RuntimeError(
            f"colocation scenario exceeded {horizon_ms} simulated ms")

    result = CollocationResult(ctx=ctx)
    for spec in specs:
        result.stats[spec.job.name] = spec.job.stats
        if spec.job not in ctx.jobs:
            ctx.jobs.append(spec.job)

    # Under --sanitize (the sanitize run option), verify the paper's
    # trace invariants and the session graphs; ERROR findings raise.
    label = ",".join(spec.job.name for spec in specs)
    try:
        enforce(ctx, policy=policy,
                sessions=[spec.job.session for spec in specs],
                label=label)
    except Exception:
        dump_flight_record(ctx, "sanitization-error", policy=policy)
        raise
    finally:
        # Uninstall the tracker's hooks and (outside --sanitize, which
        # folds the findings into enforce's report) publish its report.
        finalize_concurrency(ctx, label=label)
    return result
