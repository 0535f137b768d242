"""Run-report CLI: execute a registered workload, summarize the run.

Usage::

    python -m repro.obs.report --list
    python -m repro.obs.report --workload fig2
    python -m repro.obs.report --workload preemption \\
        --chrome-trace /tmp/trace.json --jsonl /tmp/run.jsonl

The summary is computed *only* from the run's shared observability
surfaces — the metrics registry, the run log, and the tracer — never
from experiment-module internals, so the same report works for any
workload that executes on a :class:`~repro.core.context.RunContext`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.obs.chrome_trace import write_chrome_trace
from repro.sim.trace import render_ascii_timeline

MiB = 1024.0 ** 2


# ---------------------------------------------------------------------------
# Workload registry
# ---------------------------------------------------------------------------
def _workload_fig2(seed: int, iterations: int):
    """Figure 2 scenario: two ResNet50 trainers share one V100 (mt-TF)."""
    from repro.baselines import MultiThreadedTF
    from repro.core import JobHandle, make_context
    from repro.hw import v100_server
    from repro.models import get_model
    from repro.workloads import JobSpec, run_colocation

    ctx = make_context(v100_server, 1, seed=seed)
    gpu = ctx.machine.gpu(0)
    model = get_model("ResNet50")
    jobs = [JobHandle(name=f"resnet50-{i}", model=model, batch=16,
                      training=True, preferred_device=gpu.name)
            for i in range(2)]
    run_colocation(ctx, MultiThreadedTF, [
        JobSpec(job=job, iterations=iterations) for job in jobs])
    return ctx


def _workload_fig2_switchflow(seed: int, iterations: int):
    """The Figure 2 pair, but gated by SwitchFlow (serializes cleanly)."""
    from repro.core import JobHandle, SwitchFlowPolicy, make_context
    from repro.hw import v100_server
    from repro.models import get_model
    from repro.workloads import JobSpec, run_colocation

    ctx = make_context(v100_server, 1, seed=seed)
    gpu = ctx.machine.gpu(0)
    model = get_model("ResNet50")
    jobs = [JobHandle(name=f"resnet50-{i}", model=model, batch=16,
                      training=True, preferred_device=gpu.name)
            for i in range(2)]
    run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=job, iterations=iterations) for job in jobs])
    return ctx


def _workload_preemption(seed: int, iterations: int):
    """A high-priority arrival preempts a low-priority trainer."""
    from repro.core import (PRIORITY_HIGH, PRIORITY_LOW, JobHandle,
                            SwitchFlowPolicy, make_context)
    from repro.hw import two_gpu_server
    from repro.models import get_model
    from repro.workloads import JobSpec, run_colocation

    ctx = make_context(two_gpu_server, seed=seed)
    fast = max(ctx.machine.gpus, key=lambda g: g.spec.peak_fp32_tflops)
    victim = JobHandle(name="victim", model=get_model("VGG16"), batch=32,
                       training=True, priority=PRIORITY_LOW,
                       preferred_device=fast.name)
    preemptor = JobHandle(name="preemptor", model=get_model("ResNet50"),
                          batch=32, training=True, priority=PRIORITY_HIGH,
                          preferred_device=fast.name)
    run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=victim, iterations=100_000, background=True),
        JobSpec(job=preemptor, iterations=max(iterations, 4),
                start_delay_ms=700.0),
    ])
    return ctx


def _workload_serve(seed: int, iterations: int):
    """Background trainer + latency-sensitive inference, SwitchFlow."""
    from repro.core import (PRIORITY_HIGH, PRIORITY_LOW, JobHandle,
                            SwitchFlowPolicy, make_context)
    from repro.hw import v100_server
    from repro.models import get_model
    from repro.workloads import JobSpec, run_colocation

    ctx = make_context(v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0)
    train = JobHandle(name="train", model=get_model("VGG16"), batch=32,
                      training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu.name)
    serve = JobHandle(name="serve", model=get_model("ResNet50"), batch=1,
                      training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu.name)
    run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=train, iterations=100_000, background=True),
        JobSpec(job=serve, iterations=max(iterations, 8),
                start_delay_ms=400.0, request_interval_ms=60.0),
    ])
    return ctx


def _workload_serving(seed: int, iterations: int):
    """Open-loop serving front-end (repro.serving) over a trainer.

    ``iterations`` scales the offered-load window (in hundreds of ms),
    keeping the CLI knob meaningful for a workload driven by arrival
    rate rather than iteration count.
    """
    from repro.core import (PRIORITY_HIGH, PRIORITY_LOW, JobHandle,
                            SwitchFlowPolicy, make_context)
    from repro.hw import v100_server
    from repro.models import get_model
    from repro.serving import (SLOTarget, ServedModelSpec, make_trace,
                               run_serving)
    from repro.workloads import JobSpec

    ctx = make_context(v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0)
    horizon_ms = max(iterations, 8) * 100.0
    trace = make_trace(ctx.rng, "serve", "poisson", 30.0, horizon_ms)
    served = ServedModelSpec(
        job=JobHandle(name="serve", model=get_model("MobileNetV2"),
                      batch=8, training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu.name),
        trace=trace, max_batch=8, batch_timeout_ms=5.0,
        queue_capacity=64, shed_policy="drop-newest",
        slo=SLOTarget(p99_ms=250.0))
    background = JobSpec(
        job=JobHandle(name="train", model=get_model("ResNet50"),
                      batch=32, training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu.name),
        iterations=100_000, background=True)
    run_serving(ctx, SwitchFlowPolicy, [served], [background])
    return ctx


#: name -> callable(seed, iterations) -> RunContext
WORKLOADS: Dict[str, Callable] = {
    "fig2": _workload_fig2,
    "fig2-switchflow": _workload_fig2_switchflow,
    "preemption": _workload_preemption,
    "serve": _workload_serve,
    "serving": _workload_serving,
}


def register_workload(name: str, factory: Callable) -> None:
    """Add a workload (``factory(seed, iterations) -> RunContext``)."""
    WORKLOADS[name] = factory


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
        description="Run a registered workload and print its run report.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to execute")
    parser.add_argument("--list", action="store_true",
                        help="list registered workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=8)
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
    if args.iterations < 1:
        parser.error("--iterations must be >= 1")
    if args.width < 8:
        parser.error("--width must be >= 8")

    if args.list or not args.workload:
        print("registered workloads:")
        for name in sorted(WORKLOADS):
            print(f"  {name}")
        return 0

    # Workload factories build their own RunContext; the harness
    # attaches the sampler from the active run options.
    from repro.core.options import RunOptions, RunOptionsError, use_options

    timeseries = None if args.timeseries is None else str(args.timeseries)
    try:
        options = RunOptions.parse(timeseries=timeseries)
    except RunOptionsError as exc:
        print(exc, file=sys.stderr)
        return 2
    with use_options(options):
        ctx = WORKLOADS[args.workload](args.seed, args.iterations)
    print(f"== run report: {args.workload} (seed={args.seed}) ==")
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
