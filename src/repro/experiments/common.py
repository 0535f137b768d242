"""Shared experiment scaffolding: result tables, solo-run helpers, and
the deterministic multiprocessing fan-out used by the parallel runner."""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.concurrency import (
    capture_concurrency_reports, write_concurrency_reports,
)
from repro.baselines import MultiThreadedTF
from repro.core import JobHandle, PRIORITY_HIGH, RunContext, make_context
from repro.core.options import RunOptions, current_options, use_options
from repro.core.policy import SchedulingPolicy
from repro.metrics.throughput import JobStats
from repro.models import ModelSpec
from repro.workloads import JobSpec, run_colocation


@dataclass
class ExperimentResult:
    """Uniform container every experiment module returns."""

    name: str
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def columns(self) -> List[str]:
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def to_table(self) -> str:
        """Render rows as a fixed-width text table."""
        if not self.rows:
            return f"== {self.title} ==\n(no rows)"
        columns = self.columns()
        rendered: List[List[str]] = [[_fmt(row.get(col)) for col in columns]
                                     for row in self.rows]
        widths = [max(len(col), *(len(line[i]) for line in rendered))
                  for i, col in enumerate(columns)]
        header = "  ".join(col.ljust(widths[i])
                           for i, col in enumerate(columns))
        separator = "  ".join("-" * widths[i] for i in range(len(columns)))
        body = "\n".join("  ".join(line[i].ljust(widths[i])
                                   for i in range(len(columns)))
                         for line in rendered)
        parts = [f"== {self.title} ==", header, separator, body]
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Parallel fan-out. Experiments are pure functions of their (picklable)
# inputs — every config builds a fresh RunContext — so independent
# configs/seeds can run in worker processes. Results come back in input
# order (pool.map preserves it), which makes a parallel run merge to the
# exact same output as the sequential one.
# ---------------------------------------------------------------------------

class WorkerCrashError(RuntimeError):
    """A fan-out worker process died without raising a Python error.

    Raised when a child is killed mid-experiment (segfault, OOM-killer,
    ``os._exit``); distinct from an exception *inside* the worker, which
    is re-raised as itself with the worker's traceback attached.
    """


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback as the ``__cause__`` of
    the re-raised exception, so the parent's stack trace shows where
    the child actually failed."""

    def __init__(self, tb: str) -> None:
        super().__init__(f"\n\n--- worker traceback ---\n{tb}")


def _capture_call(payload: Tuple[Callable[[Any], Any], Any, RunOptions]
                  ) -> tuple:
    """Run ``fn(item)`` in the worker under the parent's run options
    (with ``jobs=1``: workers never fan out again), capturing any
    exception and the run's concurrency reports.

    Returns ``(status, value, reports, traceback)``. Exceptions are
    shipped back as (picklable) payloads instead of being raised:
    raising inside the worker loses the child traceback, and some
    exceptions don't survive pickling at all. The rendered concurrency
    reports go back too, so the parent writes them in input order.
    """
    fn, item, options = payload
    with capture_concurrency_reports() as reports:
        try:
            with use_options(replace(options, jobs=1)):
                return "ok", fn(item), reports, None
        except BaseException as exc:  # noqa: B036 - re-raised in the parent
            return "err", exc, reports, traceback.format_exc()


def fanout_map(fn: Callable[[Any], Any], items: Sequence[Any],
               jobs: Optional[int] = None) -> List[Any]:
    """``[fn(item) for item in items]``, fanned across a process pool.

    ``fn`` and every item must be picklable (module-level function,
    plain-data args). The width is ``jobs``, else the active
    :class:`~repro.core.options.RunOptions`' ``jobs``; the serial path
    runs when it is <= 1 or there is at most one item, so callers can
    use it unconditionally. Output order always matches input order,
    and so does the order of the items' blocks in the run's
    ``concurrency.txt``. Each worker call runs under the caller's
    active options.

    Failure semantics: an exception raised by ``fn`` inside a worker is
    re-raised here as itself, with the worker's formatted traceback
    attached as its ``__cause__``. A worker that dies *without* raising
    (killed, segfault, ``os._exit``) surfaces as
    :class:`WorkerCrashError` instead of a silent hang or a bare
    pool-internal error.
    """
    items = list(items)
    options = current_options()
    jobs = min(options.jobs if jobs is None else jobs, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)
    payloads = [(fn, item, options) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=context) as pool:
            outcomes = list(pool.map(_capture_call, payloads))
    except BrokenProcessPool as exc:
        raise WorkerCrashError(
            "a fan-out worker process died mid-experiment (killed or "
            "crashed without raising); rerun with --jobs 1 to see the "
            "failure inline") from exc
    results: List[Any] = []
    for status, value, reports, tb in outcomes:
        write_concurrency_reports(reports)
        if status == "err":
            value.__cause__ = _RemoteTraceback(tb)
            raise value
        results.append(value)
    return results


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# Solo runs (the Figure 3 building block and a throughput reference)
# ---------------------------------------------------------------------------
def run_solo(machine_builder: Callable, machine_args: Sequence[Any],
             model: ModelSpec, batch: int, training: bool,
             iterations: int, seed: int = 0, data_workers: int = 32,
             policy_factory: Optional[
                 Callable[[RunContext], SchedulingPolicy]] = None,
             ) -> tuple:
    """Run one job alone on a fresh machine; returns (ctx, JobStats)."""
    ctx = make_context(machine_builder, *machine_args, seed=seed)
    job = JobHandle(
        name=f"solo/{model.name}", model=model, batch=batch,
        training=training,
        preferred_device=ctx.machine.gpu(0).name if ctx.machine.gpus
        else ctx.machine.cpu.name,
        data_workers=data_workers)
    factory = policy_factory or MultiThreadedTF
    run_colocation(ctx, factory, [JobSpec(job=job, iterations=iterations)])
    return ctx, job.stats


def solo_throughput(machine_builder: Callable, machine_args: Sequence[Any],
                    model: ModelSpec, batch: int, training: bool,
                    iterations: int = 12, warmup: int = 2,
                    seed: int = 0, data_workers: int = 32) -> float:
    """Steady-state solo items/second (Figure 7's 'single' reference)."""
    _ctx, stats = run_solo(machine_builder, machine_args, model, batch,
                           training, iterations, seed=seed,
                           data_workers=data_workers)
    return stats.throughput_items_per_s(warmup=warmup)


def solo_mean_ms(ctx: RunContext, policy_factory: Callable, name: str,
                 model: ModelSpec, batch: int, iterations: int,
                 warmup: int) -> float:
    """Mean iteration time past ``warmup`` of one high-priority
    inference job alone on ``ctx``: the latency an SLO derives from.
    Give ``ctx`` the fault plan's ``scaled(0)``: a context without one
    would take the active ``--faults`` plan from the harness."""
    job = JobHandle(name=name, model=model, batch=batch, training=False,
                    priority=PRIORITY_HIGH,
                    preferred_device=ctx.machine.gpu(0).name)
    run_colocation(ctx, policy_factory,
                   [JobSpec(job=job, iterations=iterations)])
    if len(job.stats.iteration_times_ms) <= warmup:
        raise RuntimeError(f"{name}: solo reference produced no samples")
    return job.stats.mean_iteration_ms(warmup)


def gpu_idle_percent(ctx: RunContext, stats: JobStats, gpu_lane: str,
                     warmup: int = 2, trim_tail: int = 3) -> float:
    """Mean GPU idle %% across a job's steady-state iteration windows.

    Skips ``warmup`` iterations at the start and ``trim_tail`` at the
    end — the final iterations only drain the already-full prefetch
    buffer and would bias sessions short.
    """
    from repro.metrics.timeline import session_breakdown

    spans = stats.iteration_spans[warmup:]
    if len(spans) > trim_tail + 1:
        spans = spans[:len(spans) - trim_tail]
    if not spans:
        raise ValueError("no iteration spans recorded")
    breakdowns = [session_breakdown(ctx.tracer, gpu_lane, start, end)
                  for start, end in spans]
    return sum(b.gpu_idle_percent for b in breakdowns) / len(breakdowns)
