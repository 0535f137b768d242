"""Core micro-benchmarks: the perf trajectory of the simulation stack.

Three families, matching the hot paths the simulator spends its time in:

* ``engine.*`` — raw event-loop throughput (events/sec), measured on
  both the engine and the one-heap reference loop it replaced
  (:class:`~repro.sim.heap_engine.HeapEngine`), so every run records
  its own speedup.
* ``executor.dispatch`` — node dispatch rate of a real solo workload
  (graph nodes + pool tasks per wall second of simulation), measured
  interleaved with its instrumented variants (``obs.overhead``,
  ``analysis.concurrency``). Each reports its best-of-N rate (the one
  ``check_regression.py`` gates) beside the median and CV of all runs.
* ``cost_model.lookup`` — memoized vs uncached cost-model lookup rate
  over the model zoo's ops, plus the cache hit rate.
* ``hw.gpu.launch`` — kernels/s through launch -> completion on one
  simulated GPU: a single-context chain (the SwitchFlow case, one
  resident kernel) and a two-context light-kernel co-run (the MPS-style
  multi-resident case), interleaved best-of-N with median and CV.

Besides these rates, ``obs.trace.retained_bytes_per_span`` records the
memory a traced CPU op keeps alive; no gate reads it.

Run from the repo root (writes ``BENCH_core.json`` there)::

    PYTHONPATH=src python benchmarks/bench_core.py --quick

or under pytest (uses a throwaway output path)::

    pytest benchmarks/bench_core.py -s

The JSON is committed per-PR, so the trajectory of events/sec across
the repo's history is `git log -p BENCH_core.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from repro.baselines import MultiThreadedTF
from repro.core import JobHandle, make_context
from repro.graph.cost_model import (
    COST_CACHE_STATS,
    clear_cost_cache,
    cost_cache_disabled,
    cpu_op_cost_ms,
    gpu_kernel_cost,
)
from repro.hw import (
    TESLA_V100,
    XEON_DUAL_18C,
    GpuDevice,
    KernelLaunch,
    single_gpu_server,
)
from repro.models import get_model
from repro.sim import Engine, Tracer
from repro.sim.events import Event
from repro.sim.heap_engine import HeapEngine
from repro.workloads import JobSpec, run_colocation

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

# Benchmark sizes: (quick, full)
_ENGINE_DISPATCH_EVENTS = (200_000, 600_000)
_ENGINE_TIMEOUT_EVENTS = (100_000, 300_000)
_ENGINE_PROCESS_EVENTS = (30_000, 120_000)
_ENGINE_MIXED_EVENTS = (60_000, 180_000)
_EXECUTOR_ITERATIONS = (3, 8)
# Best-of-N rounds over the solo-dispatch variants.
_DISPATCH_REPEATS = (3, 9)
_READY_CHURN_TASKS = (20_000, 60_000)
_COST_LOOKUP_ROUNDS = (20, 60)
_HISTOGRAM_SAMPLES = (5_000, 20_000)
_HISTOGRAM_QUERIES = (20_000, 50_000)
_ROUTE_LOOKUPS = (100_000, 300_000)
_SERVING_DURATION_MS = (1_500.0, 6_000.0)
_TRACE_SPANS = (10_000, 50_000)
_GPU_LAUNCH_KERNELS = (20_000, 60_000)
# Each engine pair is run this many times per side, keeping the best
# rate. One shot on a shared single-core container carries ±15% noise,
# which is enough to flip a 3x speedup to 2.6x run-to-run; best-of-N
# converges on the machine's actual capability for both sides equally.
_ENGINE_REPEATS = (2, 5)


def _make_engine(optimized: bool) -> Engine:
    # The baseline is the one-heap reference loop.
    return Engine() if optimized else HeapEngine()


# ---------------------------------------------------------------------------
# Engine family
# ---------------------------------------------------------------------------
def bench_engine_dispatch(optimized: bool, events: int,
                          batch: int = 10_000) -> float:
    """schedule+dispatch rate: pre-created events succeed in batches.

    This isolates the scheduling core — agenda insert, merged pop,
    callback dispatch — through the FIFO of events due now.
    """
    engine = _make_engine(optimized)
    processed = 0

    def callback(_event) -> None:
        nonlocal processed
        processed += 1

    elapsed = 0.0
    rounds = events // batch
    for _ in range(rounds):
        # Event construction happens outside the timed segment — only
        # the schedule (succeed) + dispatch (run) path is measured.
        group = []
        for _ in range(batch):
            event = Event(engine)
            event.callbacks.append(callback)
            group.append(event)
        started = time.perf_counter()
        for event in group:
            event.succeed()
        engine.run()
        elapsed += time.perf_counter() - started
    assert processed == rounds * batch
    return processed / elapsed


def bench_engine_timeouts(optimized: bool, events: int) -> float:
    """Heap-lane throughput: timeouts with staggered future delays."""
    engine = _make_engine(optimized)
    processed = 0

    def callback(_event) -> None:
        nonlocal processed
        processed += 1

    started = time.perf_counter()
    for index in range(events):
        timeout = engine.timeout((index % 7) * 0.25)
        timeout.callbacks.append(callback)
    engine.run()
    elapsed = time.perf_counter() - started
    assert processed == events
    return processed / elapsed


def bench_engine_processes(optimized: bool, events: int,
                           processes: int = 50) -> float:
    """End-to-end loop rate with generator processes yielding timeouts."""
    engine = _make_engine(optimized)
    steps = events // processes

    def proc(env):
        for _ in range(steps):
            yield env.timeout(1.0)

    started = time.perf_counter()
    for _ in range(processes):
        engine.process(proc(engine))
    engine.run()
    elapsed = time.perf_counter() - started
    return (steps * processes) / elapsed


def bench_engine_mixed(optimized: bool, events: int) -> float:
    """Realistic blend: processes, future timeouts and immediate chains.

    The single-family benches isolate one agenda lane each; real runs
    interleave all three. A third of the events step generator
    processes, a third are staggered future timeouts, and a third are
    re-arming chains that alternate between the due-now FIFO and short
    future delays — so bucket churn and same-time appends happen in
    one loop.
    """
    engine = _make_engine(optimized)
    third = events // 3
    processed = 0

    def callback(_event) -> None:
        nonlocal processed
        processed += 1

    n_procs = 50
    steps = third // n_procs

    def proc(env):
        for _ in range(steps):
            yield env.timeout(1.0)

    chains = 8
    quota = third // chains

    def chain(count):
        def fire(_event) -> None:
            nonlocal processed
            processed += 1
            if count[0] > 0:
                count[0] -= 1
                delay = 0.0 if count[0] % 4 else 0.25
                engine.timeout(delay).callbacks.append(fire)
        return fire

    started = time.perf_counter()
    for _ in range(n_procs):
        engine.process(proc(engine))
    for index in range(third):
        engine.timeout((index % 5) * 0.5).callbacks.append(callback)
    for _ in range(chains):
        engine.timeout(0.0).callbacks.append(chain([quota - 1]))
    engine.run()
    elapsed = time.perf_counter() - started
    total = n_procs * steps + third + chains * quota
    assert processed == third + chains * quota
    return total / elapsed


def _engine_pair(bench, events: int, repeats: int = 1) -> dict:
    # Interleave the two sides so a slow stretch of the host (another
    # container's burst, thermal dip) degrades both equally instead of
    # whichever side's block it happened to land on.
    baseline = optimized = 0.0
    for _ in range(repeats):
        baseline = max(baseline, bench(False, events))
        optimized = max(optimized, bench(True, events))
    return {
        "events": events,
        "repeats": repeats,
        "baseline_events_per_sec": round(baseline),
        "optimized_events_per_sec": round(optimized),
        "speedup": round(optimized / baseline, 3),
    }


# ---------------------------------------------------------------------------
# Executor family
# ---------------------------------------------------------------------------
#: Solo-dispatch variants: ``make_context`` keyword arguments per variant.
_DISPATCH_VARIANTS = {
    "bare": {},
    "timeseries": {"timeseries_interval_ms": 50.0},
    "hb": {"concurrency": "hb"},
}


def _solo_dispatch(iterations: int, **context_kwargs) -> tuple:
    """One solo MobileNetV2 training run; returns (ctx, wall seconds).

    Only the simulation is timed: the context and job are built first.
    A concurrency tracker installs itself when its context is built, so
    each variant's context is built right before its own run.
    """
    ctx = make_context(single_gpu_server, TESLA_V100, seed=0,
                       **context_kwargs)
    job = JobHandle(name="solo/MobileNetV2", model=get_model("MobileNetV2"),
                    batch=32, training=True,
                    preferred_device=ctx.machine.gpu(0).name,
                    data_workers=32)
    gc.collect()
    started = time.perf_counter()
    run_colocation(ctx, MultiThreadedTF,
                   [JobSpec(job=job, iterations=iterations)])
    return ctx, time.perf_counter() - started


def measure_dispatch(iterations: int, repeats: int) -> dict:
    """Wall time of every dispatch variant, ``repeats`` times each.

    Rounds take the variants in turn, so a slow stretch of the host
    degrades every variant alike instead of whichever variant's block
    it lands on. Returns ``{variant: (ctx of its last run, [wall s of
    each run])}``; the simulation is deterministic, so every run's ctx
    holds the same counts.
    """
    times = {name: [] for name in _DISPATCH_VARIANTS}
    contexts = {}
    for _ in range(repeats):
        for name, kwargs in _DISPATCH_VARIANTS.items():
            contexts[name], elapsed = _solo_dispatch(iterations, **kwargs)
            times[name].append(elapsed)
    return {name: (contexts[name], times[name]) for name in times}


def _rates(run: tuple) -> list:
    ctx, times = run
    tasks = ctx.metrics.value("pool.tasks_total")
    return [tasks / elapsed for elapsed in times]


def _nodes_per_sec(run: tuple) -> int:
    """Best-of-N dispatch rate: the gated figure."""
    return round(max(_rates(run)))


def _spread(rates: list, field: str) -> dict:
    """Median and coefficient of variation of ``field`` over all runs.

    Best-of-N is what the gate compares; the spread says how far one
    run of this host can stray from it.
    """
    return {f"{field}_median": round(statistics.median(rates)),
            f"{field}_cv": round(statistics.pstdev(rates)
                                 / statistics.fmean(rates), 4)}


def bench_executor_dispatch(runs: dict, iterations: int) -> dict:
    """Node dispatch rate of a real solo workload (wall-clock)."""
    ctx, times = runs["bare"]
    return {
        "model": "MobileNetV2",
        "iterations": iterations,
        "repeats": len(times),
        "pool_tasks": int(ctx.metrics.value("pool.tasks_total")),
        "gpu_kernels": int(ctx.metrics.value("gpu.kernels_total")),
        "simulated_ms": round(ctx.now, 1),
        "wall_s": round(min(times), 3),
        "nodes_per_sec": _nodes_per_sec(runs["bare"]),
        **_spread(_rates(runs["bare"]), "nodes_per_sec"),
    }


def bench_executor_ready_churn(total_tasks: int, wave: int = 64,
                               workers: int = 8) -> dict:
    """Ready-set churn: waves of microtasks through one thread pool.

    Isolates the completion-wave dispatch path the executor leans on —
    ``ThreadPool.submit`` placement of a whole wave, worker wake,
    local-queue pop and the incremental queue-depth accounting —
    without the model/device machinery of ``executor.dispatch``. A
    driver releases a wave of trivial tasks, waits for the pool to
    drain it, and repeats.
    """
    from repro.hw.cpu import CpuDevice
    from repro.runtime.threadpool import Task, ThreadPool

    engine = Engine()
    cpu = CpuDevice(engine, XEON_DUAL_18C)
    pool = ThreadPool(engine, cpu, workers, name="bench")

    def driver(env):
        submitted = 0
        while submitted < total_tasks:
            count = min(wave, total_tasks - submitted)
            done = env.event()
            remaining = [count]

            def body(_worker, done=done, remaining=remaining):
                yield env.timeout(0.001)
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed()

            pool.submit(
                [Task(f"churn{submitted + i}", "bench", body)
                 for i in range(count)])
            submitted += count
            yield done

    engine.process(driver(engine))
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    pool.shutdown()
    engine.run()
    return {
        "tasks": total_tasks,
        "wave": wave,
        "workers": workers,
        "wall_s": round(elapsed, 3),
        "tasks_per_sec": round(total_tasks / elapsed)
        if elapsed > 0 else 0,
    }


# ---------------------------------------------------------------------------
# GPU device family
# ---------------------------------------------------------------------------
#: GPU launch cases: (context, stream) of each launch chain, occupancy
#: and how many kernels each chain keeps launched ahead.
_GPU_LAUNCH_CASES = {
    # SwitchFlow's case: one context, heavy kernels, one resident at a
    # time; the chain keeps later launches queued behind a busy stream.
    "single_context": ([("train", 0)], 1.0, 4),
    # MPS-style sharing: light kernels of two contexts co-run, so every
    # admission and completion recomputes multi-context rates.
    "two_context": ([("a", 0), ("b", 0)], 0.3, 2),
}


def _gpu_launch_seconds(case: str, kernels: int) -> float:
    """Wall seconds to push ``kernels`` launches through to completion.

    Each chain launches its next kernel from the completion callback of
    an earlier one, as the executor does, keeping ``ahead`` launched.
    """
    chains, occupancy, ahead = _GPU_LAUNCH_CASES[case]
    engine = Engine()
    gpu = GpuDevice(engine, TESLA_V100, name="bench")
    per_chain = kernels // len(chains)
    completed = 0

    def launcher(context: str, stream: int):
        issued = 0

        def launch_next(_event=None) -> None:
            nonlocal issued, completed
            if _event is not None:
                completed += 1
            if issued < per_chain:
                issued += 1
                kernel = KernelLaunch(
                    name="k", context=context, stream=stream,
                    work_ms=0.05 + 0.01 * (issued % 7), occupancy=occupancy)
                gpu.launch(kernel).callbacks.append(launch_next)

        return launch_next

    gc.collect()
    started = time.perf_counter()
    for context, stream in chains:
        launch_next = launcher(context, stream)
        for _ in range(ahead):
            launch_next()
    engine.run()
    elapsed = time.perf_counter() - started
    assert completed == per_chain * len(chains) == gpu.kernels_completed
    return elapsed


def bench_gpu_launch(kernels: int, repeats: int) -> dict:
    """Kernels/s through the GPU engine, both cases interleaved."""
    times = {case: [] for case in _GPU_LAUNCH_CASES}
    for _ in range(repeats):
        for case in _GPU_LAUNCH_CASES:
            times[case].append(_gpu_launch_seconds(case, kernels))
    entry = {"kernels": kernels, "repeats": repeats}
    for case, elapsed in times.items():
        rates = [kernels / seconds for seconds in elapsed]
        field = f"{case}_kernels_per_sec"
        entry[field] = round(max(rates))
        entry.update(_spread(rates, field))
    return entry


# ---------------------------------------------------------------------------
# Observability family
# ---------------------------------------------------------------------------
def bench_histogram_quantile(samples: int, queries: int) -> dict:
    """Quantile query rate: sorted-view cache vs observe-churn.

    The cached path answers repeated queries off one sorted view; the
    churn path interleaves an observe before every query, forcing a
    re-sort each time — the worst case the cache is designed to beat.
    """
    from repro.obs.metrics import MetricsRegistry

    def _filled() -> object:
        histogram = MetricsRegistry().histogram("bench.lat_ms", "bench")
        for index in range(samples):
            histogram.observe(float((index * 37) % 997))
        return histogram

    histogram = _filled()
    started = time.perf_counter()
    for index in range(queries):
        histogram.quantile(25 + (index % 3) * 25)
    cached_elapsed = time.perf_counter() - started

    histogram = _filled()
    churn_queries = max(200, queries // 50)
    started = time.perf_counter()
    for index in range(churn_queries):
        histogram.observe(float(index))
        histogram.quantile(95)
    churn_elapsed = time.perf_counter() - started

    cached_rate = queries / cached_elapsed
    churn_rate = churn_queries / churn_elapsed
    return {
        "samples": samples,
        "queries": queries,
        "cached_queries_per_sec": round(cached_rate),
        "churn_queries_per_sec": round(churn_rate),
        "cache_speedup": round(cached_rate / churn_rate, 3),
    }


def bench_concurrency_overhead(runs: dict, iterations: int) -> dict:
    """Dispatch rate with the concurrency tracker off and on.

    The untracked rate reuses the ``bare`` runs of ``executor.dispatch``
    (every synchronization source and shared-state site carries an
    instrumentation hook, and with no tracker installed each hook must
    cost one module-global load plus a ``None`` test), so it is gated
    there, not here. The tracked rate records what happens-before,
    lockset and deadlock analysis cost on the same workload;
    ``hb_nodes_per_sec`` is gated, so a slower tracker fails the bench
    gate.
    """
    untracked = _nodes_per_sec(runs["bare"])
    hb = _nodes_per_sec(runs["hb"])
    tracker = runs["hb"][0].concurrency
    return {
        "model": "MobileNetV2",
        "iterations": iterations,
        "untracked_nodes_per_sec": untracked,
        **_spread(_rates(runs["bare"]), "untracked_nodes_per_sec"),
        "hb_nodes_per_sec": hb,
        **_spread(_rates(runs["hb"]), "hb_nodes_per_sec"),
        "hb_overhead_pct": round(100.0 * (untracked - hb) / untracked, 1),
        "tracked_accesses": tracker.accesses,
        "tracked_sync_ops": tracker.sync_ops,
    }


def bench_obs_overhead(runs: dict, iterations: int) -> dict:
    """Dispatch rate with windowed time-series sampling attached.

    Same solo workload as ``executor.dispatch``; the critical-path
    profile is computed afterwards and reported as its own wall cost.
    Gating this rate (not just the bare-dispatch one) catches
    observability creep on the hot path.
    """
    from repro.obs.profile import profile_run

    ctx, times = runs["timeseries"]
    profile = profile_run(ctx)
    return {
        "model": "MobileNetV2",
        "iterations": iterations,
        "timeseries_windows": len(ctx.timeseries.windows),
        "profile_overhead_ms": round(profile.overhead_wall_ms, 3),
        "wall_s": round(min(times), 3),
        "profiled_nodes_per_sec": _nodes_per_sec(runs["timeseries"]),
        **_spread(_rates(runs["timeseries"]), "profiled_nodes_per_sec"),
    }


def trace_retained_bytes_per_span(spans: int) -> float:
    """Bytes the tracer keeps alive per recorded CPU-op span.

    Records ``spans`` synthetic CPU-op spans (a few dozen labels, two
    contexts, like a training step's host ops) under ``tracemalloc``
    after a warm-up pass has filled the meta intern table. Deterministic: it counts allocations, not time.
    """
    engine = Engine()
    tracer = Tracer(engine)
    labels = [f"op{index}" for index in range(64)]
    contexts = ["train/ResNet50", "infer/MobileNetV2"]

    def ops(env):
        for index in range(spans):
            span = tracer.begin("cpu:host", labels[index % len(labels)],
                                context=contexts[index % 2])
            yield env.timeout(0.01)
            span.close()

    engine.process(ops(engine))
    engine.run()
    tracer.spans.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine.process(ops(engine))
        engine.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    if len(tracer.spans) != spans:
        raise RuntimeError(f"recorded {len(tracer.spans)} of {spans} spans")
    return retained / spans


def bench_trace_retained(spans: int) -> dict:
    """Memory, not speed: recorded here, gated by no rate."""
    return {"spans": spans,
            "retained_bytes_per_span": round(
                trace_retained_bytes_per_span(spans), 1)}


# ---------------------------------------------------------------------------
# Topology family
# ---------------------------------------------------------------------------
def bench_route_lookup(lookups: int) -> dict:
    """Device/route lookup rate on a 4-node cluster.

    ``device()`` sits on the migration and sanitizer hot paths; it used
    to be a linear scan over ``devices`` and is now a dict hit — the
    scan is re-measured here so the payload records its own speedup.
    ``route()`` adds the per-pair cache on top (a miss walks the
    topology and allocates hop lists; steady-state migrations must not).
    """
    from repro.hw.topology import v100_cluster

    engine = Engine()
    cluster = v100_cluster(engine, 4, 4)
    names = [gpu.name for gpu in cluster.gpus]
    pairs = [(a, b) for a in names for b in names if a != b]

    started = time.perf_counter()
    for index in range(lookups):
        cluster.device(names[index % len(names)])
    device_elapsed = time.perf_counter() - started

    devices = cluster.devices
    started = time.perf_counter()
    for index in range(lookups):
        wanted = names[index % len(names)]
        for device in devices:
            if device.name == wanted:
                break
    scan_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    for index in range(lookups):
        source, destination = pairs[index % len(pairs)]
        cluster.route(source, destination)
    route_elapsed = time.perf_counter() - started

    device_rate = lookups / device_elapsed
    scan_rate = lookups / scan_elapsed
    return {
        "devices": len(devices),
        "routes": len(pairs),
        "lookups": lookups,
        "device_lookups_per_sec": round(device_rate),
        "scan_lookups_per_sec": round(scan_rate),
        "device_speedup": round(device_rate / scan_rate, 3),
        "route_lookups_per_sec": round(lookups / route_elapsed),
    }


# ---------------------------------------------------------------------------
# Serving family
# ---------------------------------------------------------------------------
def bench_serving_throughput(duration_ms: float,
                             rate_rps: float = 80.0) -> dict:
    """Wall-clock request rate of the serving front-end (repro.serving).

    A heavy open-loop stream through the whole admission -> batcher ->
    dispatch path on a solo served model — no trainer, so the number
    gates the serving stack itself (queue events, batch formation,
    per-request accounting) rather than preemption behavior. The rate
    sits just under the solo service capacity: a saturated queue would
    shed a timing-dependent fraction and make the gated rate noisy.
    """
    from repro.baselines import MultiThreadedTF
    from repro.core import PRIORITY_HIGH, JobHandle, make_context
    from repro.hw import v100_server
    from repro.serving import (SLOTarget, ServedModelSpec, make_trace,
                               run_serving)

    model = get_model("MobileNetV2")
    ctx = make_context(v100_server, 1, seed=0)
    trace = make_trace(ctx.rng, "bench-serve", "poisson", rate_rps,
                       duration_ms)
    served = ServedModelSpec(
        job=JobHandle(name="bench-serve", model=model, batch=8,
                      training=False, priority=PRIORITY_HIGH,
                      preferred_device=ctx.machine.gpu(0).name),
        trace=trace, max_batch=8, batch_timeout_ms=5.0,
        queue_capacity=256, shed_policy="drop-newest",
        slo=SLOTarget(p99_ms=10_000.0))
    started = time.perf_counter()
    result = run_serving(ctx, MultiThreadedTF, [served])
    elapsed = time.perf_counter() - started
    stream = result.served("bench-serve")
    return {
        "model": model.name,
        "rate_rps": rate_rps,
        "duration_ms": duration_ms,
        "arrived": stream.arrived,
        "completed": stream.completed,
        "batches": len(stream.batches),
        "wall_s": round(elapsed, 3),
        "requests_per_sec": round(stream.completed / elapsed)
        if elapsed > 0 else 0,
    }


# ---------------------------------------------------------------------------
# Cost-model family
# ---------------------------------------------------------------------------
def _zoo_ops():
    ops = []
    for name in ("ResNet50", "MobileNetV2", "VGG16"):
        graph = get_model(name).build_graph(batch=32, training=True)
        ops.extend(node.op for node in graph)
    return ops


def bench_cost_lookup(rounds: int) -> dict:
    """Memoized vs uncached lookup rate over the model zoo's ops."""
    ops = _zoo_ops()
    gpu_spec, cpu_spec = TESLA_V100, XEON_DUAL_18C

    def sweep() -> int:
        for op in ops:
            gpu_kernel_cost(op, gpu_spec)
            cpu_op_cost_ms(op, cpu_spec)
        return 2 * len(ops)

    with cost_cache_disabled():
        started = time.perf_counter()
        uncached_lookups = sum(sweep() for _ in range(rounds))
        uncached_elapsed = time.perf_counter() - started

    clear_cost_cache(reset_stats=True)
    started = time.perf_counter()
    cached_lookups = sum(sweep() for _ in range(rounds))
    cached_elapsed = time.perf_counter() - started
    stats = COST_CACHE_STATS
    hits = stats.gpu_hits + stats.cpu_hits
    total = hits + stats.gpu_misses + stats.cpu_misses

    uncached_rate = uncached_lookups / uncached_elapsed
    cached_rate = cached_lookups / cached_elapsed
    return {
        "ops": len(ops),
        "rounds": rounds,
        "uncached_lookups_per_sec": round(uncached_rate),
        "cached_lookups_per_sec": round(cached_rate),
        "speedup": round(cached_rate / uncached_rate, 3),
        "cache_hit_rate": round(hits / total, 4) if total else 0.0,
    }


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------
def run_suite(mode: str = "quick", output: Path = DEFAULT_OUTPUT) -> dict:
    size = 0 if mode == "quick" else 1
    repeats = _ENGINE_REPEATS[size]
    iterations = _EXECUTOR_ITERATIONS[size]
    dispatch = measure_dispatch(iterations, _DISPATCH_REPEATS[size])
    payload = {
        "schema": 1,
        "mode": mode,
        "generated_by": "benchmarks/bench_core.py",
        "benchmarks": {
            "engine.dispatch": _engine_pair(
                bench_engine_dispatch, _ENGINE_DISPATCH_EVENTS[size],
                repeats),
            "engine.timeout": _engine_pair(
                bench_engine_timeouts, _ENGINE_TIMEOUT_EVENTS[size],
                repeats),
            "engine.process": _engine_pair(
                bench_engine_processes, _ENGINE_PROCESS_EVENTS[size],
                repeats),
            "engine.mixed": _engine_pair(
                bench_engine_mixed, _ENGINE_MIXED_EVENTS[size], repeats),
            "executor.dispatch": bench_executor_dispatch(
                dispatch, iterations),
            "executor.ready_churn": bench_executor_ready_churn(
                _READY_CHURN_TASKS[size]),
            "cost_model.lookup": bench_cost_lookup(
                _COST_LOOKUP_ROUNDS[size]),
            "hw.gpu.launch": bench_gpu_launch(
                _GPU_LAUNCH_KERNELS[size], _DISPATCH_REPEATS[size]),
            "histogram.quantile": bench_histogram_quantile(
                _HISTOGRAM_SAMPLES[size], _HISTOGRAM_QUERIES[size]),
            "obs.overhead": bench_obs_overhead(dispatch, iterations),
            "analysis.concurrency": bench_concurrency_overhead(
                dispatch, iterations),
            "obs.trace.retained_bytes_per_span": bench_trace_retained(
                _TRACE_SPANS[size]),
            "topology.route_lookup": bench_route_lookup(
                _ROUTE_LOOKUPS[size]),
            "serving.request_throughput": bench_serving_throughput(
                _SERVING_DURATION_MS[size]),
        },
    }
    output = Path(output)
    output.write_text(json.dumps(payload, indent=2) + "\n",
                      encoding="utf-8")
    return payload


def _print_summary(payload: dict) -> None:
    benches = payload["benchmarks"]
    for name in ("engine.dispatch", "engine.timeout", "engine.process",
                 "engine.mixed"):
        entry = benches[name]
        print(f"{name}: baseline {entry['baseline_events_per_sec']:,} ev/s"
              f" -> optimized {entry['optimized_events_per_sec']:,} ev/s"
              f" ({entry['speedup']}x)")
    executor = benches["executor.dispatch"]
    print(f"executor.dispatch: {executor['nodes_per_sec']:,} nodes/s best, "
          f"{executor['nodes_per_sec_median']:,} median, "
          f"CV {executor['nodes_per_sec_cv']:.1%} over "
          f"{executor['repeats']} runs "
          f"({executor['pool_tasks']} tasks in {executor['wall_s']}s)")
    churn = benches["executor.ready_churn"]
    print(f"executor.ready_churn: {churn['tasks_per_sec']:,} tasks/s "
          f"({churn['tasks']} tasks, waves of {churn['wave']} across "
          f"{churn['workers']} workers)")
    cost = benches["cost_model.lookup"]
    print(f"cost_model.lookup: {cost['uncached_lookups_per_sec']:,}/s "
          f"uncached -> {cost['cached_lookups_per_sec']:,}/s cached "
          f"({cost['speedup']}x, hit rate {cost['cache_hit_rate']:.2%})")
    launch = benches["hw.gpu.launch"]
    print(f"hw.gpu.launch: {launch['single_context_kernels_per_sec']:,} "
          f"kernels/s single-context (median "
          f"{launch['single_context_kernels_per_sec_median']:,}, CV "
          f"{launch['single_context_kernels_per_sec_cv']:.1%}), "
          f"{launch['two_context_kernels_per_sec']:,} two-context co-run "
          f"(median {launch['two_context_kernels_per_sec_median']:,}, CV "
          f"{launch['two_context_kernels_per_sec_cv']:.1%})")
    quantile = benches["histogram.quantile"]
    print(f"histogram.quantile: {quantile['cached_queries_per_sec']:,}/s "
          f"cached vs {quantile['churn_queries_per_sec']:,}/s under "
          f"churn ({quantile['cache_speedup']}x)")
    obs = benches["obs.overhead"]
    print(f"obs.overhead: {obs['profiled_nodes_per_sec']:,} nodes/s with "
          f"timeseries on ({obs['timeseries_windows']} windows, "
          f"profile {obs['profile_overhead_ms']} ms)")
    concurrency = benches["analysis.concurrency"]
    print(f"analysis.concurrency: {concurrency['untracked_nodes_per_sec']:,} "
          f"nodes/s untracked, {concurrency['hb_nodes_per_sec']:,} hb "
          f"({concurrency['hb_overhead_pct']}% overhead, "
          f"{concurrency['tracked_accesses']} accesses / "
          f"{concurrency['tracked_sync_ops']} sync ops)")
    trace = benches["obs.trace.retained_bytes_per_span"]
    print(f"obs.trace.retained_bytes_per_span: "
          f"{trace['retained_bytes_per_span']} B "
          f"over {trace['spans']:,} CPU-op spans")
    topo = benches["topology.route_lookup"]
    print(f"topology.route_lookup: {topo['device_lookups_per_sec']:,}/s "
          f"device (scan {topo['scan_lookups_per_sec']:,}/s, "
          f"{topo['device_speedup']}x), "
          f"{topo['route_lookups_per_sec']:,}/s cached routes over "
          f"{topo['routes']} pairs")
    serving = benches["serving.request_throughput"]
    print(f"serving.request_throughput: "
          f"{serving['requests_per_sec']:,} req/s "
          f"({serving['completed']}/{serving['arrived']} requests in "
          f"{serving['batches']} batches, {serving['wall_s']}s)")


# ---------------------------------------------------------------------------
# pytest entry points (collected via the bench_*.py glob)
# ---------------------------------------------------------------------------
def test_bench_core(once, tmp_path):
    payload = once(run_suite, mode="quick",
                   output=tmp_path / "BENCH_core.json")
    assert (tmp_path / "BENCH_core.json").exists()
    benches = payload["benchmarks"]
    # Loose sanity floors (CI machines are noisy); the committed
    # BENCH_core.json records the real numbers.
    assert benches["engine.dispatch"]["speedup"] > 1.2
    assert benches["engine.mixed"]["speedup"] > 1.0
    assert benches["cost_model.lookup"]["speedup"] > 1.5
    assert benches["cost_model.lookup"]["cache_hit_rate"] > 0.9
    assert benches["executor.dispatch"]["pool_tasks"] > 0
    assert benches["executor.ready_churn"]["tasks_per_sec"] > 0
    launch = benches["hw.gpu.launch"]
    assert launch["single_context_kernels_per_sec"] > 0
    assert launch["two_context_kernels_per_sec"] > 0
    assert benches["histogram.quantile"]["cache_speedup"] > 1.0
    assert benches["obs.overhead"]["profiled_nodes_per_sec"] > 0
    assert benches["obs.overhead"]["timeseries_windows"] > 0
    concurrency = benches["analysis.concurrency"]
    assert concurrency["untracked_nodes_per_sec"] > 0
    assert concurrency["hb_nodes_per_sec"] > 0
    assert concurrency["tracked_sync_ops"] > 0
    assert benches["executor.dispatch"]["nodes_per_sec_cv"] >= 0
    assert benches["obs.trace.retained_bytes_per_span"][
        "retained_bytes_per_span"] > 0
    # The dict lookup must beat the linear scan it replaced (satellite
    # guard): 20 devices on the bench cluster, so anything close to 1x
    # means the lookup regressed back to a scan.
    assert benches["topology.route_lookup"]["device_speedup"] > 1.5
    assert benches["topology.route_lookup"]["route_lookups_per_sec"] > 0
    serving = benches["serving.request_throughput"]
    assert serving["requests_per_sec"] > 0
    # The bench queue is deep and the SLO loose: the solo front-end
    # must complete (not shed) essentially the whole stream.
    assert serving["completed"] > 0.9 * serving["arrived"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SwitchFlow-repro core microbenchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="smaller event counts (CI mode)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    payload = run_suite(mode="quick" if args.quick else "full",
                        output=args.output)
    _print_summary(payload)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
