"""Golden engine transcripts: twelve full workloads, pinned by digest.

Each workload runs on a fresh run context and yields its observable
transcript: every trace span, every run-log record, the final clock
and the per-job (or per-request) outcome. ``engine_transcripts.json``
holds, per workload, the sha256 of ``repr(transcript)`` beside the
final clock and the span and record counts, so a failing comparison
says at a glance whether the run got longer or only reordered.

``tests/test_engine_equivalence.py`` recomputes every entry. To record
the file again after a deliberate change in simulated behaviour (and
say why in CHANGES.md), run from the repository root::

    PYTHONPATH=src python -m tests.golden.engine_transcripts
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.baselines import MultiThreadedTF
from repro.core import JobHandle, PRIORITY_HIGH, PRIORITY_LOW, make_context
from repro.core.switchflow import SwitchFlowPolicy
from repro.faults import FaultPlan
from repro.hw import v100_cluster, v100_server
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation

GOLDEN_PATH = Path(__file__).with_name("engine_transcripts.json")


def _job_stats(result):
    return {name: (s.iterations, tuple(s.iteration_times_ms), s.crashed)
            for name, s in result.stats.items()}


def _transcript(ctx, outcome):
    return (ctx.tracer.to_rows(), ctx.runlog.records, ctx.engine.now,
            outcome)


COLOCATION = {
    "multithreaded": (MultiThreadedTF, [
        ("a", "MobileNetV2", 8, True, PRIORITY_LOW, 3, 0.0),
        ("b", "ResNet50", 8, False, PRIORITY_LOW, 3, 10.0),
    ]),
    "switchflow-preempting": (SwitchFlowPolicy, [
        ("bg", "ResNet50", 8, True, PRIORITY_LOW, 4, 0.0),
        ("fg", "MobileNetV2", 8, False, PRIORITY_HIGH, 3, 30.0),
    ]),
}


def colocation_transcript(workload, seed):
    """Two jobs sharing one V100 under the workload's policy."""
    policy_factory, jobs = COLOCATION[workload]
    ctx = make_context(v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0).name
    specs = [
        JobSpec(job=JobHandle(name=name, model=get_model(model),
                              batch=batch, training=training,
                              priority=priority, preferred_device=gpu),
                iterations=iterations, start_delay_ms=delay)
        for name, model, batch, training, priority, iterations, delay
        in jobs]
    result = run_colocation(ctx, policy_factory, specs)
    return _transcript(ctx, _job_stats(result))


# The injector draws from named RNG streams at hook sites, and the
# order in which sites are reached is part of the transcript.
FAULT_PLANS = {
    "mixed": {
        "faults": [
            {"kind": "kernel_slowdown", "trigger": {"every_n": 9},
             "factor": 1.5},
            {"kind": "kernel_stall", "trigger": {"probability": 0.05},
             "stall_ms": 1.0},
            {"kind": "transfer_fail", "trigger": {"probability": 0.5}},
            {"kind": "device_oom", "trigger": {"at_ms": 120.0},
             "fraction": 0.9, "duration_ms": 40.0},
            {"kind": "spurious_preempt", "trigger": {"every_ms": 90.0}},
            {"kind": "job_crash", "trigger": {"probability": 0.03}},
        ],
    },
    "crash-on-preempt": {
        "faults": [{"kind": "job_crash", "trigger": {"probability": 1.0},
                    "on": "preempt"}],
        "recovery": {"checkpoint_interval": 2, "restart_delay_ms": 5.0},
    },
}


def faulted_transcript(plan_name, seed):
    """SwitchFlow preempting a trainer under one of ``FAULT_PLANS``."""
    plan = FaultPlan.from_dict(FAULT_PLANS[plan_name])
    ctx = make_context(v100_server, 2, seed=seed, fault_plan=plan)
    gpu = ctx.machine.gpu(0).name
    specs = [
        JobSpec(job=JobHandle(name="bg", model=get_model("ResNet50"),
                              batch=8, training=True,
                              priority=PRIORITY_LOW,
                              preferred_device=gpu),
                iterations=4),
        JobSpec(job=JobHandle(name="fg", model=get_model("MobileNetV2"),
                              batch=8, training=False,
                              priority=PRIORITY_HIGH,
                              preferred_device=gpu),
                iterations=3, start_delay_ms=30.0),
    ]
    result = run_colocation(ctx, SwitchFlowPolicy, specs)
    return _transcript(ctx, _job_stats(result))


def cluster_transcript(seed):
    """Two nodes x two GPUs: a trainer per GPU, two inference jobs
    whose preemptions force same-node and cross-node migrations."""
    ctx = make_context(v100_cluster, 2, 2, seed=seed)
    machine = ctx.machine
    specs = [
        JobSpec(job=JobHandle(name=f"bg{i}", model=get_model("ResNet50"),
                              batch=16, training=True,
                              priority=PRIORITY_LOW,
                              preferred_device=gpu.name),
                iterations=100_000, background=True)
        for i, gpu in enumerate(machine.gpus)
    ] + [
        JobSpec(job=JobHandle(name=f"fg{i}", model=get_model("MobileNetV2"),
                              batch=1, training=False,
                              priority=PRIORITY_HIGH,
                              preferred_device=machine.gpus[i].name),
                iterations=3, start_delay_ms=delay)
        for i, delay in enumerate((500.0, 520.0))]
    result = run_colocation(ctx, SwitchFlowPolicy, specs)
    return _transcript(ctx, _job_stats(result))


def serving_transcript(seed):
    """A bursty served MobileNetV2 stream beside a ResNet50 trainer:
    queue events, batching timeouts and preemption."""
    from repro.serving import (SLOTarget, ServedModelSpec, make_trace,
                               run_serving)

    ctx = make_context(v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0).name
    trace = make_trace(ctx.rng, "serve", "bursty", 40.0, 1_200.0)
    served = ServedModelSpec(
        job=JobHandle(name="serve", model=get_model("MobileNetV2"),
                      batch=4, training=False, priority=PRIORITY_HIGH,
                      preferred_device=gpu),
        trace=trace, max_batch=4, batch_timeout_ms=5.0,
        queue_capacity=16, shed_policy="drop-oldest",
        slo=SLOTarget(p99_ms=250.0))
    background = JobSpec(
        job=JobHandle(name="train", model=get_model("ResNet50"),
                      batch=16, training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu),
        iterations=100_000, background=True)
    result = run_serving(ctx, SwitchFlowPolicy, [served], [background])
    requests = tuple(
        (r.rid, r.arrival_ms, r.admitted_ms, r.dispatched_ms,
         r.completed_ms, r.shed_reason, r.batch_id)
        for r in result.served("serve").requests)
    return _transcript(ctx, requests)


def workloads():
    """Golden key -> zero-argument transcript builder, for all twelve."""
    table = {}
    for seed in (3, 11):
        for name in sorted(COLOCATION):
            table[f"colocation/{name}/{seed}"] = (
                lambda n=name, s=seed: colocation_transcript(n, s))
        for name in sorted(FAULT_PLANS):
            table[f"faulted/{name}/{seed}"] = (
                lambda n=name, s=seed: faulted_transcript(n, s))
    for seed in (3, 17):
        table[f"cluster/{seed}"] = lambda s=seed: cluster_transcript(s)
    for seed in (0, 7):
        table[f"serving/{seed}"] = lambda s=seed: serving_transcript(s)
    return table


def summarize(transcript):
    """The golden entry for one transcript."""
    rows, records, now, _outcome = transcript
    return {
        "sha256": hashlib.sha256(repr(transcript).encode()).hexdigest(),
        "now": now,
        "spans": len(rows),
        "records": len(records),
    }


def load():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def main() -> None:
    golden = {key: summarize(build())
              for key, build in sorted(workloads().items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} transcript digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
