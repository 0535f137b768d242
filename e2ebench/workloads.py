"""The five end-to-end workloads and what each run reports.

Every workload is a pair of steps: ``prepare(seed)`` builds the run's
inputs (contexts, model specs, arrival traces) and is never timed;
``run(prepared)`` is the harness call a user waits for and is the only
timed region. ``run`` returns an :class:`Outcome` holding the simulated
metrics (``sim``), the per-layer counts read from the run's contexts
(``counts``), and the names of any workload checks that failed.

``sim`` and ``counts`` are bit-deterministic for a seed, so the runner
compares every run's :meth:`Outcome.fingerprint` with the first run's.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.analysis.integration import analyze_context
from repro.baselines import MultiThreadedTF
from repro.core import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    JobHandle,
    SwitchFlowPolicy,
    make_context,
)
from repro.experiments import cluster_scale
from repro.graph.cost_model import COST_CACHE_STATS
from repro.hw import TESLA_V100, single_gpu_server, v100_server
from repro.metrics.latency import percentile
from repro.models import get_model
from repro.serving import SLOTarget, ServedModelSpec, make_trace, run_serving
from repro.workloads import JobSpec, run_colocation

MB = float(1 << 20)
#: Latency percentiles are reported only over at least this many
#: samples, so p95 has at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 200
TRAIN_WARMUP = 2
INFER_WARMUP = 5

TRAIN_MODELS = ("ResNet50", "MobileNetV2", "InceptionV3", "VGG16")
TRAIN_BATCH = 32
TRAIN_ITERATIONS = 24

COLOC_REQUESTS = 210
COLOC_START_MS = 1500.0

SERVE_RATE_RPS = 40.0
SERVE_HORIZON_MS = 10_000.0
SERVE_MAX_BATCH = 8
SERVE_TIMEOUT_MS = 5.0
SERVE_QUEUE = 16
SERVE_SLO_P99_MS = 250.0

CLUSTER_NODES = 2
CLUSTER_GPUS_PER_NODE = 2
CLUSTER_REQUESTS = 30


@dataclass
class Outcome:
    """What one run of a workload produced."""

    sim: Dict[str, float]
    counts: Dict[str, float]
    failed_checks: List[str] = field(default_factory=list)

    def fingerprint(self) -> Tuple:
        return (tuple(sorted(self.sim.items())),
                tuple(sorted(self.counts.items())))


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in ``BENCHMARK.json``."""

    name: str
    prepare: Callable[[int], object]
    run: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Shared readers
# ---------------------------------------------------------------------------
def _train_items_per_s(jobs) -> float:
    """Items per simulated second over the jobs' post-warm-up iterations."""
    items = seconds = 0.0
    for job in jobs:
        samples = job.stats.iteration_times_ms[TRAIN_WARMUP:]
        items += len(samples) * job.batch
        seconds += sum(samples) / 1000.0
    return items / seconds if seconds > 0 else 0.0


def _latency_metrics(samples: List[float]) -> Dict[str, float]:
    if len(samples) < MIN_LATENCY_SAMPLES:
        return {}
    return {"sim_p50_ms": percentile(samples, 50),
            "sim_p95_ms": percentile(samples, 95)}


def _merged_quantile(contexts, name: str, pct: float) -> float:
    samples: List[float] = []
    for ctx in contexts:
        family = ctx.metrics.get(name)
        if family is not None:
            samples.extend(family.all_samples())
    return percentile(samples, pct) if samples else 0.0


def layer_counts(contexts, cache_delta: Tuple[int, int]) -> Dict[str, float]:
    """Per-layer work counts summed over every context a run used."""
    def total(name: str) -> float:
        return sum(ctx.metrics.value(name) for ctx in contexts)

    busy_ms = span_ms = high_water = 0.0
    for ctx in contexts:
        for gpu in ctx.machine.gpus:
            busy_ms += gpu.busy_ms_until(ctx.now)
            span_ms += ctx.now
            high_water = max(high_water, gpu.memory.high_water_mark)
    hits, lookups = cache_delta
    trackers = [ctx.concurrency for ctx in contexts
                if ctx.concurrency is not None]
    return {
        "runtime.pool.tasks": total("pool.tasks_total"),
        "runtime.pool.steals": total("pool.steals_total"),
        "runtime.rm.transfers": total("rm.transfers_total"),
        "runtime.rm.transfer_mb": total("rm.transfer_bytes_total") / MB,
        "hw.gpu.kernels": total("gpu.kernels_total"),
        "hw.gpu.busy_frac": busy_ms / span_ms if span_ms else 0.0,
        "hw.mem.high_water_mb": high_water / MB,
        "core.preemptions": total("sched.preemptions"),
        "core.migrations": total("sched.migrations"),
        "core.gate_wait_ms_p95": _merged_quantile(
            contexts, "sched.gate_wait_ms", 95),
        "graph.cost_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serving.arrived": total("serving.requests_arrived_total"),
        "serving.shed": total("serving.requests_shed_total"),
        "serving.batches": total("serving.batches_total"),
        "serving.batch_fill": 0.0,
        "serving.queue_wait_ms_p95": _merged_quantile(
            contexts, "serving.queue_wait_ms", 95),
        "faults.injected": total("faults.injected_total"),
        "faults.recovered": total("faults.recovered_total"),
        "analysis.accesses": float(sum(t.accesses for t in trackers)),
        "analysis.sync_ops": float(sum(t.sync_ops for t in trackers)),
        "analysis.findings_error": 0.0,
        "obs.trace.spans": float(sum(len(ctx.tracer.spans)
                                     for ctx in contexts)),
        "obs.runlog.records": float(sum(len(ctx.runlog.records)
                                        for ctx in contexts)),
    }


@contextlib.contextmanager
def cost_cache_window():
    """Yield a list that receives (hits, lookups) made inside the block."""
    stats = COST_CACHE_STATS

    def snapshot() -> Tuple[int, int]:
        hits = stats.gpu_hits + stats.cpu_hits
        return hits, hits + stats.gpu_misses + stats.cpu_misses

    window: List[int] = []
    before = snapshot()
    yield window
    after = snapshot()
    window.extend((after[0] - before[0], after[1] - before[1]))


# ---------------------------------------------------------------------------
# train_solo: each model trains alone, no scheduler decisions
# ---------------------------------------------------------------------------
def _prepare_train_solo(seed: int):
    runs = []
    for name in TRAIN_MODELS:
        ctx = make_context(single_gpu_server, TESLA_V100, seed=seed)
        job = JobHandle(name=f"solo/{name}", model=get_model(name),
                        batch=TRAIN_BATCH, training=True,
                        preferred_device=ctx.machine.gpu(0).name)
        runs.append((ctx, job))
    return runs


def _run_train_solo(runs) -> Outcome:
    with cost_cache_window() as cache:
        for ctx, job in runs:
            run_colocation(ctx, MultiThreadedTF,
                           [JobSpec(job=job, iterations=TRAIN_ITERATIONS)])
    jobs = [job for _ctx, job in runs]
    failed = [f"{job.name} ran {job.stats.iterations} iterations"
              for job in jobs if job.stats.iterations != TRAIN_ITERATIONS]
    counts = layer_counts([ctx for ctx, _job in runs], cache)
    if counts["core.preemptions"]:
        failed.append("a solo run was preempted")
    return Outcome(sim={"sim_train_items_per_s": _train_items_per_s(jobs)},
                   counts=counts, failed_checks=failed)


# ---------------------------------------------------------------------------
# infer_coloc(_checked): the Fig. 6c cell under SwitchFlow
# ---------------------------------------------------------------------------
def _prepare_coloc(seed: int, checked: bool = False):
    extra = {"concurrency": "hb", "timeseries_interval_ms": 50.0} \
        if checked else {}
    ctx = make_context(v100_server, 2, seed=seed, **extra)
    gpu = ctx.machine.gpu(0).name
    train = JobHandle(name="background-train", model=get_model("VGG16"),
                      batch=TRAIN_BATCH, training=True,
                      priority=PRIORITY_LOW, preferred_device=gpu)
    infer = JobHandle(name="inference-stream",
                      model=get_model("MobileNetV2"), batch=1,
                      training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu)
    return ctx, train, infer, checked


def _run_coloc(prepared) -> Outcome:
    ctx, train, infer, checked = prepared
    with cost_cache_window() as cache:
        run_colocation(ctx, SwitchFlowPolicy, [
            JobSpec(job=train, iterations=100_000, background=True),
            JobSpec(job=infer, iterations=COLOC_REQUESTS,
                    start_delay_ms=COLOC_START_MS),
        ])
        report = analyze_context(ctx, sessions=[train.session,
                                                infer.session],
                                 label="infer_coloc_checked") \
            if checked else None
    samples = infer.stats.iteration_times_ms[INFER_WARMUP:]
    sim = {"sim_train_items_per_s": _train_items_per_s([train])}
    sim.update(_latency_metrics(samples))
    counts = layer_counts([ctx], cache)
    failed = []
    if infer.stats.iterations != COLOC_REQUESTS:
        failed.append(f"{infer.stats.iterations}/{COLOC_REQUESTS} "
                      f"requests completed")
    if not counts["core.preemptions"] or not counts["core.migrations"]:
        failed.append("the trainer was never preempted and migrated")
    if train.stats.crashed or infer.stats.crashed:
        failed.append("a job crashed")
    if report is not None:
        counts["analysis.findings_error"] = float(len(report.errors))
        if report.has_errors:
            failed.append(f"{len(report.errors)} ERROR findings")
        if not counts["analysis.sync_ops"]:
            failed.append("the concurrency tracker saw no sync ops")
    return Outcome(sim=sim, counts=counts, failed_checks=failed)


# ---------------------------------------------------------------------------
# serve_bursty: open-loop bursty arrivals with admission and shedding
# ---------------------------------------------------------------------------
def _prepare_serve(seed: int):
    ctx = make_context(v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0).name
    # The whole arrival schedule exists in simulated time before the run
    # starts, so the generator can never fall behind.
    trace = make_trace(ctx.rng, "fg-serve", "bursty", SERVE_RATE_RPS,
                       SERVE_HORIZON_MS)
    served = ServedModelSpec(
        job=JobHandle(name="fg-serve", model=get_model("MobileNetV2"),
                      batch=SERVE_MAX_BATCH, training=False,
                      priority=PRIORITY_HIGH, preferred_device=gpu),
        trace=trace, max_batch=SERVE_MAX_BATCH,
        batch_timeout_ms=SERVE_TIMEOUT_MS, queue_capacity=SERVE_QUEUE,
        shed_policy="drop-newest", slo=SLOTarget(p99_ms=SERVE_SLO_P99_MS))
    background = JobSpec(
        job=JobHandle(name="bg-train", model=get_model("ResNet50"),
                      batch=TRAIN_BATCH, training=True,
                      priority=PRIORITY_LOW, preferred_device=gpu),
        iterations=100_000, background=True)
    return ctx, served, background


def _run_serve(prepared) -> Outcome:
    ctx, served, background = prepared
    with cost_cache_window() as cache:
        result = run_serving(ctx, SwitchFlowPolicy, [served], [background])
    stream = result.served("fg-serve")
    # Latency runs from each request's scheduled arrival, so time spent
    # queued behind a stall is counted.
    sim = _latency_metrics(stream.latencies_ms())
    sim.update({
        "sim_goodput_rps": stream.goodput_rps,
        "sim_shed_frac": stream.shed / stream.arrived,
        "sim_train_items_per_s": _train_items_per_s([background.job]),
    })
    counts = layer_counts([ctx], cache)
    requests = sum(len(batch) for batch in stream.batches)
    counts["serving.batch_fill"] = requests / (len(stream.batches)
                                               * SERVE_MAX_BATCH)
    failed = []
    if stream.arrived != len(served.trace):
        failed.append(f"{stream.arrived}/{len(served.trace)} arrivals")
    if stream.completed + stream.shed != stream.arrived:
        failed.append("a request neither completed nor was shed")
    if result.crashed_jobs():
        failed.append(f"crashed: {result.crashed_jobs()}")
    return Outcome(sim=sim, counts=counts, failed_checks=failed)


# ---------------------------------------------------------------------------
# cluster_faults: the cluster_scale cell under the default fault plan
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _captured_contexts():
    """Record every context ``cluster_scale`` builds during the block.

    ``cluster_scale.run`` builds its contexts internally; wrapping the
    name it calls is the only way to read their counters afterwards.
    """
    contexts = []
    original = cluster_scale.make_context

    def recording(*args, **kwargs):
        ctx = original(*args, **kwargs)
        contexts.append(ctx)
        return ctx

    cluster_scale.make_context = recording
    try:
        yield contexts
    finally:
        cluster_scale.make_context = original


def _prepare_cluster(seed: int):
    return seed, cluster_scale.default_plan()


def _run_cluster(prepared) -> Outcome:
    seed, plan = prepared
    with cost_cache_window() as cache, _captured_contexts() as contexts:
        result = cluster_scale.run(
            requests=CLUSTER_REQUESTS, nodes=(CLUSTER_NODES,),
            gpus_per_node=CLUSTER_GPUS_PER_NODE, seed=seed, plan=plan)
    row = result.rows[0]
    sim = {"sim_train_items_per_s": row["agg_items_per_s"]}
    # Some seeds migrate only within a node; the route-class check then
    # reports WARN (vacuous), which is not a failure.
    failed = [check for check in cluster_scale.headline_checks(result)
              if check.startswith("FAIL")]
    counts = layer_counts(contexts, cache)
    if not counts["faults.injected"]:
        failed.append("no fault was injected")
    return Outcome(sim=sim, counts=counts, failed_checks=failed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("train_solo", _prepare_train_solo, _run_train_solo),
    Workload("infer_coloc", _prepare_coloc, _run_coloc),
    Workload("infer_coloc_checked",
             lambda seed: _prepare_coloc(seed, checked=True), _run_coloc),
    Workload("serve_bursty", _prepare_serve, _run_serve),
    Workload("cluster_faults", _prepare_cluster, _run_cluster),
)}

#: The checkers observe the simulation without changing it, so the
#: checked workload must reproduce its reference's simulated metrics.
REFERENCE = {"infer_coloc_checked": "infer_coloc"}
