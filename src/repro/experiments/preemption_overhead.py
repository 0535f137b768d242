"""Section 5.2.3: preemption overhead decomposition.

Two quantities: (1) preemption latency — the time from a high-priority
arrival to the moment it holds the GPU, dominated by draining the
victim's outstanding kernels (worst case: one heavyweight kernel, tens
of ms); (2) the memory retained for the victim's model state until the
asynchronous transfer lands, which the paper bounds at <=10% of device
memory (Table 1's largest model).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    SwitchFlowPolicy,
    make_context,
)
from repro.experiments.common import ExperimentResult
from repro.hw import GTX_1080_TI, two_gpu_server
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation

MODELS = ["ResNet50", "VGG16", "VGG19", "DenseNet121", "InceptionV3",
          "MobileNetV2"]


def measure_preemption_latency(victim_model: str, seed: int = 0,
                               arrival_ms: float = 700.0) -> dict:
    """Preempt a training job mid-iteration; returns latency parts.

    The arrival time is retried with small offsets until the preemptor
    actually lands while the victim holds the GPU — an arrival in the
    gap between two of the victim's runs is granted the gate for free
    and preempts nothing.
    """
    for attempt in range(8):
        offset = arrival_ms + attempt * 17.0
        ctx, victim = _attempt(victim_model, seed, offset)
        # The scheduler publishes every preemption decision into the
        # metrics registry; query it instead of scanning raw spans.
        if ctx.metrics.value("sched.preemptions") > 0:
            arrival_ms = offset
            break
    else:
        # Lightweight victims barely hold the GPU; the preemptor always
        # finds the gate free. Report that, rather than a latency.
        state_mib = get_model(victim_model).stateful_bytes / 2 ** 20
        return {
            "victim": victim_model,
            "preemption_latency_ms": None,
            "victim_migrated_to": "(not preempted: gate was free)",
            "retained_state_mib": state_mib,
            "state_fraction_of_11gb_pct": 100.0 * state_mib / (11 * 1024),
        }
    fast = max(ctx.machine.gpus, key=lambda g: g.spec.peak_fp32_tflops)
    # Preemption latency: decision -> the preemptor's first kernel.
    # The decision instant comes from the structured run log.
    decisions = ctx.runlog.filter("preempt")
    if not decisions:
        raise RuntimeError("preemption did not occur")
    preempt_time = min(record["t_ms"] for record in decisions)
    grant_time = min(
        (span.start for span in ctx.tracer.spans
         if span.lane == fast.lane
         and span.meta.get("context") == "preemptor"
         and span.start >= preempt_time),
        default=None)
    if grant_time is None:
        raise RuntimeError("preemptor never ran a kernel")
    state_mib = get_model(victim_model).stateful_bytes / 2 ** 20
    return {
        "victim": victim_model,
        # Critical path: preemption decision -> preemptor's first kernel,
        # i.e. the victim's outstanding-kernel drain plus gate hand-off.
        "preemption_latency_ms": grant_time - preempt_time,
        "victim_migrated_to": victim.assigned_device,
        "retained_state_mib": state_mib,
        "state_fraction_of_11gb_pct":
            100.0 * state_mib / (11 * 1024),
    }


def _attempt(victim_model: str, seed: int, arrival_ms: float):
    """One co-location attempt; returns ``(ctx, victim job)``."""
    ctx = make_context(two_gpu_server, seed=seed)
    fast = max(ctx.machine.gpus, key=lambda g: g.spec.peak_fp32_tflops)
    victim = JobHandle(
        name="victim", model=get_model(victim_model), batch=32,
        training=True, priority=PRIORITY_LOW, preferred_device=fast.name)
    preemptor = JobHandle(
        name="preemptor", model=get_model("ResNet50"), batch=32,
        training=True, priority=PRIORITY_HIGH, preferred_device=fast.name)
    run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=victim, iterations=100_000, background=True),
        JobSpec(job=preemptor, iterations=4, start_delay_ms=arrival_ms),
    ])
    return ctx, victim


def run(seed: int = 0,
        models: Optional[List[str]] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="preemption",
        title="Section 5.2.3: preemption latency and retained state")
    for model_name in (models or MODELS):
        result.add_row(**measure_preemption_latency(model_name, seed=seed))
    result.notes.append(
        "Paper: worst-case preemption latency is one outstanding kernel "
        "(a few tens of ms); retained weights are <=10% of an 11 GB GPU "
        "(VGG19, ~110 ms until transferred).")
    result.notes.append(
        f"GTX 1080 Ti reference: {GTX_1080_TI.memory_bytes / 2**30:.0f} "
        "GiB device memory.")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes in Section 5.2.3."""
    latency = {row["victim"]: row["preemption_latency_ms"]
               for row in result.rows
               if row["preemption_latency_ms"] is not None}
    state = max(row["state_fraction_of_11gb_pct"] for row in result.rows)
    checks = [
        (bool(latency), f"{len(latency)} of {len(result.rows)} victims "
                        f"preempted (at least one)"),
        (state <= 10.0, f"retained weights <= 10% of an 11 GB device "
                        f"(max {state:.1f}%)"),
    ]
    if latency:
        # Worst-case preemption latency is one outstanding kernel: a
        # few tens of milliseconds.
        checks.append((all(0.5 < ms < 120.0 for ms in latency.values()),
                       f"preemption latency within 0.5-120 ms "
                       f"({min(latency.values()):.1f}-"
                       f"{max(latency.values()):.1f} ms)"))
    # Heavier models take longer to drain (bigger kernels in flight).
    if {"VGG19", "ResNet50"} <= set(latency):
        checks.append((latency["VGG19"] > latency["ResNet50"],
                       f"VGG19 drains slower than ResNet50 "
                       f"({latency['VGG19']:.1f} > "
                       f"{latency['ResNet50']:.1f} ms)"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
