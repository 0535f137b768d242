"""Figure 2: two ResNet50 training jobs sharing a single V100.

The paper's motivation experiment: with multi-threaded TF both models'
kernels interleave on the GPU, execution serializes, and per-model
throughput drops from ~226 to ~116 images/s. This module reproduces the
three observables: solo vs co-run throughput, the serialization
fraction of GPU busy time, and the ASCII timeline itself.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.baselines import MultiThreadedTF
from repro.core import JobHandle, RunContext, make_context
from repro.experiments.common import ExperimentResult, solo_throughput
from repro.hw import v100_server
from repro.metrics.timeline import serialization_fraction
from repro.models import get_model
from repro.sim.trace import render_ascii_timeline
from repro.workloads import JobSpec, run_colocation

PAPER_SOLO_IMAGES_PER_S = 226.0
PAPER_CORUN_IMAGES_PER_S = 116.0


def corun(policy_factory: Callable = MultiThreadedTF, batch: int = 16,
          iterations: int = 12, seed: int = 0
          ) -> Tuple[RunContext, List[JobHandle]]:
    """The Figure 2 scenario: two ResNet50 trainers share one V100
    under ``policy_factory``. Runs it; returns ``(ctx, jobs)``."""
    ctx = make_context(v100_server, 1, seed=seed)
    gpu = ctx.machine.gpu(0)
    model = get_model("ResNet50")
    jobs = [
        JobHandle(name=f"resnet50-{index}", model=model, batch=batch,
                  training=True, preferred_device=gpu.name)
        for index in range(2)
    ]
    run_colocation(ctx, policy_factory, [
        JobSpec(job=job, iterations=iterations) for job in jobs])
    return ctx, jobs


def run(batch: int = 16, iterations: int = 12,
        seed: int = 0) -> ExperimentResult:
    solo = solo_throughput(v100_server, (1,), get_model("ResNet50"), batch,
                           True, iterations=iterations, seed=seed)
    ctx, jobs = corun(MultiThreadedTF, batch, iterations, seed)
    serialized = serialization_fraction(
        ctx.tracer, ctx.machine.gpu(0).lane, (jobs[0].name, jobs[1].name))

    result = ExperimentResult(
        name="fig2",
        title="Figure 2: two ResNet50s training on one V100 "
              f"(BS={batch}, multi-threaded TF)")
    result.add_row(configuration="solo", images_per_s=solo,
                   paper_images_per_s=PAPER_SOLO_IMAGES_PER_S,
                   serialization_fraction=None)
    for job in jobs:
        result.add_row(
            configuration=f"co-run/{job.name}",
            images_per_s=job.stats.throughput_items_per_s(warmup=2),
            paper_images_per_s=PAPER_CORUN_IMAGES_PER_S,
            serialization_fraction=serialized)
    result.notes.append(
        "serialization_fraction: share of GPU-busy time with only ONE "
        "model's kernels resident (paper: 'significant serialization').")
    return result


def render_timeline(window_ms: float = 400.0, batch: int = 16,
                    seed: int = 0, width: int = 100) -> str:
    """The Figure 2 picture itself: per-model GPU occupancy over time."""
    ctx, jobs = corun(MultiThreadedTF, batch, 8, seed)
    gpu = ctx.machine.gpu(0)
    end = ctx.engine.now
    start = max(0.0, end - window_ms)
    glyphs = {jobs[0].name: "█", jobs[1].name: "░"}
    spans = []
    for span in ctx.tracer.spans:
        if span.lane != gpu.lane or span.end <= start:
            continue
        context = span.meta.get("context", "?")
        relabeled = type(span)(
            lane=f"{gpu.name}/{context}", name=span.name,
            start=span.start, end=span.end,
            meta={**span.meta, "glyph": glyphs.get(context, "#")})
        spans.append(relabeled)
    return render_ascii_timeline(spans, width=width, start=start, end=end)


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Figure 2."""
    solo = result.rows[0]["images_per_s"]
    corun = result.rows[1:]
    rates = ", ".join(f"{row['images_per_s']:.0f}" for row in corun)
    serialized = min(row["serialization_fraction"] for row in corun)
    checks = [
        (all(0.35 * solo < row["images_per_s"] < 0.65 * solo
             for row in corun),
         f"co-run {rates} img/s within 0.35-0.65x solo {solo:.0f} "
         f"(paper: 226 -> 116)"),
        (serialized > 0.85,
         f"serialization fraction {serialized:.2f} > 0.85 (paper: "
         f"significant serialization)"),
    ]
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
