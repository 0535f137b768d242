"""Run-report CLI: run one cell of a runner experiment, summarize it.

A *cell* is one :class:`~repro.core.context.RunContext` an experiment
of :data:`repro.experiments.runner.EXPERIMENTS` builds, numbered in
build order. Usage::

    python -m repro.obs.report --list
    python -m repro.obs.report fig2 --quick            # list its cells
    python -m repro.obs.report fig2 --quick --cell 1
    python -m repro.obs.report preemption --quick --cell 1 \\
        --chrome-trace /tmp/trace.json --jsonl /tmp/run.jsonl

The summary is computed *only* from the run's shared observability
surfaces — the metrics registry, the run log, and the tracer — never
from experiment-module internals, so the same report works for any
cell that executes on a :class:`~repro.core.context.RunContext`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.chrome_trace import write_chrome_trace
from repro.sim.trace import render_ascii_timeline

MiB = 1024.0 ** 2


# ---------------------------------------------------------------------------
# Experiment cells: the run contexts a runner experiment builds
# ---------------------------------------------------------------------------
class CellError(ValueError):
    """A bad experiment name or cell index; the message names the flag."""


def add_cell_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--quick --seed --cell`` flags every cell-reading CLI takes."""
    parser.add_argument("--quick", action="store_true",
                        help="the experiment's quick configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cell", type=int, metavar="K",
                        help="explain the K-th run context the experiment "
                             "builds (default: list them)")


def run_cell(experiment: str, args: argparse.Namespace,
             flag: str = "experiment"):
    """Run a runner experiment at jobs 1 and return its ``args.cell``-th
    :class:`~repro.core.context.RunContext`.

    Without ``--cell``, prints the cells (index, jobs, simulated end,
    policy, injected faults) and returns None. Raises
    :class:`CellError` on an unknown experiment or an index past the
    last cell.
    """
    from dataclasses import replace

    from repro.core.context import capture_contexts
    from repro.core.options import current_options, use_options
    from repro.experiments.runner import EXPERIMENTS

    spec = EXPERIMENTS.get(experiment)
    if spec is None:
        raise CellError(f"{flag}: unknown experiment {experiment!r} "
                        f"(choices: {', '.join(EXPERIMENTS)})")
    mode = "quick" if args.quick else "full"
    # In-process (one worker), so every context is built under the capture.
    with use_options(replace(current_options(), jobs=1)), \
            capture_contexts(select=args.cell) as capture:
        spec.run(mode, args.seed)
    if args.cell is None:
        print(f"== cells: {experiment} ({mode}, seed={args.seed}) ==")
        for index, label in enumerate(capture.labels):
            print(f"  {index:>3}  {label}")
        print("pass --cell K to explain one")
        return None
    if capture.selected is None:
        raise CellError(f"--cell: {args.cell} is out of range; "
                        f"{experiment} builds {len(capture.labels)} cells")
    return capture.selected


# ---------------------------------------------------------------------------
# Summary rendering (reads ONLY ctx.metrics / ctx.runlog / ctx.tracer)
# ---------------------------------------------------------------------------
def _histogram_line(metrics, name: str) -> Optional[str]:
    family = metrics.get(name)
    if family is None:
        return None
    count = int(family.total())
    if count == 0:
        return None
    return (f"p50={family.quantile(50):.3f} p95={family.quantile(95):.3f} "
            f"p99={family.quantile(99):.3f} ms  (n={count})")


def run_summary(ctx, width: int = 100, window_ms: float = 400.0) -> str:
    """Render the run report for any finished RunContext."""
    metrics = ctx.metrics
    lines: List[str] = []
    lines.append(f"simulated time: {ctx.now:.1f} ms")

    # Scheduler ---------------------------------------------------------
    lines.append("")
    lines.append("scheduler")
    lines.append(f"  preemptions:  "
                 f"{int(metrics.value('sched.preemptions'))}")
    lines.append(f"  migrations:   "
                 f"{int(metrics.value('sched.migrations'))}")
    gate_wait = _histogram_line(metrics, "sched.gate_wait_ms")
    if gate_wait is not None:
        lines.append(f"  gate-wait     {gate_wait}")
    else:
        # Ungated policy (e.g. multi-threaded TF): report the generic
        # compute-acquire wait so the field is always present.
        acquire = _histogram_line(metrics, "sched.acquire_wait_ms") \
            or "p50=0.000 p95=0.000 p99=0.000 ms  (n=0)"
        lines.append(f"  gate-wait     {acquire} [no device gates; "
                     "compute-acquire wait]")
    abort = _histogram_line(metrics, "sched.abort_ms")
    if abort is not None:
        lines.append(f"  abort-drain   {abort}")

    # Per-GPU -----------------------------------------------------------
    lines.append("")
    lines.append("per-GPU")
    for gpu in ctx.machine.gpus:
        busy_frac = metrics.value("gpu.busy_fraction", device=gpu.name)
        kernels = int(metrics.value("gpu.kernels_total", device=gpu.name))
        switches = int(metrics.value("gpu.context_switches_total",
                                     device=gpu.name))
        high_water = metrics.value("mem.high_water_bytes",
                                   device=gpu.name)
        ooms = int(metrics.value("mem.oom_total", device=gpu.name))
        lines.append(
            f"  {gpu.name}: busy {100.0 * busy_frac:.1f}%  "
            f"kernels {kernels}  ctx-switches {switches}  "
            f"mem high-water {high_water / MiB:.0f} MiB"
            + (f"  OOMs {ooms}" if ooms else ""))

    # State transfers ---------------------------------------------------
    transfers = int(metrics.value("rm.transfers_total"))
    if transfers:
        lines.append("")
        lines.append("state transfer")
        bytes_moved = metrics.value("rm.transfer_bytes_total")
        lines.append(f"  transfers: {transfers}  "
                     f"bytes: {bytes_moved / MiB:.1f} MiB")
        latency = _histogram_line(metrics, "rm.transfer_ms")
        if latency is not None:
            lines.append(f"  latency    {latency}")

    # Thread pools ------------------------------------------------------
    pools = metrics.get("pool.tasks_total")
    if pools is not None and pools.series():
        lines.append("")
        lines.append("thread pools")
        for series in sorted(pools.series(),
                             key=lambda s: s.labels.get("pool", "")):
            pool = series.labels.get("pool", "?")
            busy_ms = metrics.value("pool.busy_ms_total", pool=pool)
            workers = metrics.value("pool.workers", pool=pool)
            elapsed = max(ctx.now, 1e-9) * max(workers, 1.0)
            depth = metrics.get("pool.queue_depth")
            max_depth = 0.0
            if depth is not None:
                child = depth.child(pool=pool)
                max_depth = child.max_value
            steals = int(metrics.value("pool.steals_total", pool=pool))
            lines.append(
                f"  {pool}: tasks {int(series.value)}  "
                f"utilization {100.0 * busy_ms / elapsed:.1f}%  "
                f"max queue depth {int(max_depth)}  steals {steals}")

    # Jobs --------------------------------------------------------------
    iteration = metrics.get("job.iteration_ms")
    if iteration is not None and iteration.series():
        lines.append("")
        lines.append("jobs")
        for series in sorted(iteration.series(),
                             key=lambda s: s.labels.get("job", "")):
            s = series.summary()
            lines.append(
                f"  {series.labels.get('job', '?')}: "
                f"iterations {s['count']}  mean {s['mean']:.1f} ms  "
                f"p95 {s['p95']:.1f} ms")

    # Serving -----------------------------------------------------------
    arrived = metrics.get("serving.requests_arrived_total")
    if arrived is not None and arrived.series():
        lines.append("")
        lines.append("serving")
        for series in sorted(arrived.series(),
                             key=lambda s: s.labels.get("job", "")):
            job = series.labels.get("job", "?")
            completed = int(metrics.value(
                "serving.requests_completed_total", job=job))
            goodput = int(metrics.value("serving.goodput_total",
                                        job=job))
            shed = int(series.value) - completed
            lines.append(
                f"  {job}: arrived {int(series.value)}  "
                f"completed {completed}  shed {shed}  "
                f"SLO-met {goodput}")
            latency = _histogram_line(metrics,
                                      "serving.request_latency_ms")
            if latency is not None:
                lines.append(f"    latency     {latency}")
            queue_wait = _histogram_line(metrics,
                                         "serving.queue_wait_ms")
            if queue_wait is not None:
                lines.append(f"    queue-wait  {queue_wait}")
            batch_size = metrics.get("serving.batch_size")
            if batch_size is not None and batch_size.total() > 0:
                sizes = batch_size.all_samples()
                depth = metrics.get("serving.queue_depth")
                max_depth = depth.child(job=job).max_value \
                    if depth is not None else 0.0
                lines.append(
                    f"    batches     {len(sizes)}  "
                    f"mean size {sum(sizes) / len(sizes):.1f}  "
                    f"max queue depth {int(max_depth)}")

    # Time series -------------------------------------------------------
    sampler = getattr(ctx, "timeseries", None)
    if sampler is not None and sampler.windows:
        lines.append("")
        lines.append("time series")
        for row in sampler.render(last=10).splitlines():
            lines.append(f"  {row}")

    # Timeline ----------------------------------------------------------
    gpu_lanes = [gpu.lane for gpu in ctx.machine.gpus]
    spans = [s for s in ctx.tracer.spans if s.lane in gpu_lanes]
    if spans:
        end = ctx.now
        start = max(0.0, end - window_ms)
        lines.append("")
        lines.append(f"GPU timeline (last {end - start:.0f} ms)")
        lines.append(render_ascii_timeline(
            [s for s in spans if s.end > start],
            width=width, start=start, end=end))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Run one cell of a runner experiment and print its "
                    "run report.")
    parser.add_argument("experiment", nargs="?",
                        help="experiment name (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list the experiments")
    add_cell_arguments(parser)
    parser.add_argument("--width", type=int, default=100,
                        help="ASCII timeline width")
    parser.add_argument("--timeseries", type=float, metavar="MS",
                        help="sample windowed metrics every MS sim-ms "
                             "(adds counter tracks to --chrome-trace)")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="also write a chrome://tracing JSON file")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="also write the structured run log (JSONL)")
    parser.add_argument("--metrics-json", metavar="PATH",
                        help="also write the full metrics snapshot (JSON)")
    args = parser.parse_args(argv)
    if args.width < 8:
        parser.error("--width must be >= 8")

    if args.list or not args.experiment:
        from repro.experiments.runner import EXPERIMENTS
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0

    # The harness attaches the sampler from the active run options.
    from repro.core.options import RunOptions, RunOptionsError, use_options

    timeseries = None if args.timeseries is None else str(args.timeseries)
    try:
        options = RunOptions.parse(timeseries=timeseries)
        with use_options(options):
            ctx = run_cell(args.experiment, args)
    except (RunOptionsError, CellError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if ctx is None:
        return 0
    print(f"== run report: {args.experiment} cell {args.cell} "
          f"(seed={args.seed}) ==")
    print(run_summary(ctx, width=args.width))

    if args.chrome_trace:
        sampler = getattr(ctx, "timeseries", None)
        counters = sampler.chrome_counters() if sampler is not None \
            else None
        write_chrome_trace(ctx.tracer, args.chrome_trace,
                           counters=counters)
        print(f"\nchrome trace written to {args.chrome_trace} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        ctx.runlog.write(args.jsonl)
        print(f"run log written to {args.jsonl}")
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(ctx.metrics.snapshot(), fh, indent=2)
        print(f"metrics snapshot written to {args.metrics_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
