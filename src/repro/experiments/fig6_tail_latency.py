"""Figure 6: 95th-percentile inference tail latency under co-location.

A high-priority inference stream (BS=1) shares a V100 with a background
training job. Multi-threaded TF lets the jobs fight over the device;
SwitchFlow preempts. Four sub-experiments mirror the paper's panels:
CNN inference against (a) MobileNetV2, (b) ResNet50, (c) VGG16
training, and (d) NMT inference against several CNN training jobs.
The paper's improvements range from ~3.2x to 19.05x.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.baselines import MultiThreadedTF
from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    RunContext,
    SwitchFlowPolicy,
    make_context,
)
from repro.core.policy import SchedulingPolicy
from repro.experiments.common import ExperimentResult
from repro.hw import v100_server
from repro.metrics.latency import LatencySummary
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation

# The paper's panels: (background training model, foreground models).
PANELS = [
    ("MobileNetV2", ["ResNet50", "VGG16", "VGG19", "DenseNet121",
                     "InceptionV3", "MobileNetV2", "NMT"]),
    ("ResNet50", ["ResNet50", "VGG16", "VGG19", "DenseNet121",
                  "InceptionV3", "MobileNetV2", "NMT"]),
    ("VGG16", ["ResNet50", "VGG16", "VGG19", "DenseNet121",
               "InceptionV3", "MobileNetV2", "NMT"]),
    # Panel (d): NMT inference against different training jobs.
    ("NMT-panel", ["MobileNetV2", "ResNet50", "VGG16", "InceptionV3"]),
]


def measure_tail_latency(
        policy_factory: Callable[[RunContext], SchedulingPolicy],
        train_model: str, infer_model: str, requests: int = 40,
        warmup: int = 5, train_batch: int = 32, seed: int = 0,
        warmup_delay_ms: float = 1500.0) -> LatencySummary:
    """One cell of Figure 6: p95 of the inference stream.

    The machine is the paper's multi-V100 server (two GPUs suffice):
    under SwitchFlow the preempted trainer migrates to a sibling V100,
    so the inference stream gets the fast GPU to itself.
    """
    ctx = make_context(v100_server, 2, seed=seed)
    gpu_name = ctx.machine.gpu(0).name
    train = JobHandle(
        name="background-train", model=get_model(train_model),
        batch=train_batch, training=True, priority=PRIORITY_LOW,
        preferred_device=gpu_name)
    infer = JobHandle(
        name="inference-stream", model=get_model(infer_model), batch=1,
        training=False, priority=PRIORITY_HIGH,
        preferred_device=gpu_name)
    results = run_colocation(ctx, policy_factory, [
        JobSpec(job=train, iterations=100_000, background=True),
        JobSpec(job=infer, iterations=requests,
                start_delay_ms=warmup_delay_ms),
    ])
    return results.latency_summary("inference-stream", warmup=warmup)


def run(requests: int = 40, seed: int = 0,
        panels: Optional[List] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig6",
        title="Figure 6: p95 inference tail latency, TF vs SwitchFlow "
              "(V100, inference BS=1, background training BS=32)")
    for background, foregrounds in (panels or PANELS):
        if background == "NMT-panel":
            pairs = [(train, "NMT") for train in foregrounds]
            panel = "(d) NMT inference vs training jobs"
        else:
            pairs = [(background, fg) for fg in foregrounds]
            panel = f"training {background}"
        for train_model, infer_model in pairs:
            tf = measure_tail_latency(
                MultiThreadedTF, train_model, infer_model,
                requests=requests, seed=seed)
            sf = measure_tail_latency(
                SwitchFlowPolicy, train_model, infer_model,
                requests=requests, seed=seed)
            result.add_row(
                panel=panel,
                training_job=train_model,
                inference_job=infer_model,
                tf_p95_ms=tf.p95,
                switchflow_p95_ms=sf.p95,
                improvement_x=tf.p95 / sf.p95 if sf.p95 > 0 else None,
            )
    result.notes.append(
        "Paper: improvements 3.2x-5.6x for CNN panels, 8.15x-19.05x for "
        "the NMT panel (largest: NMT inference vs VGG16 training).")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Figure 6.

    Cells where the background trainer is itself pipeline-bound
    (MobileNetV2) are ~1x on this substrate: the contended resource is
    the host CPU, which preemption cannot reclaim (EXPERIMENTS.md).
    """
    gains = [row["improvement_x"] for row in result.rows]
    nmt = {row["training_job"]: row["improvement_x"]
           for row in result.rows if row["inference_job"] == "NMT"}
    cnn = [row["improvement_x"] for row in result.rows
           if row["inference_job"] != "NMT"]
    checks = [(all(gain > 0.75 for gain in gains),
               f"SwitchFlow wins or draws every cell (min "
               f"{min(gains):.2f}x > 0.75x)")]
    if nmt:
        best = max(nmt.values())
        checks.append((best > 8.0, f"best NMT improvement {best:.1f}x > 8x "
                                   f"(paper: up to 19.05x)"))
    if cnn:
        checks.append((max(cnn) > 3.0,
                       f"best CNN-panel improvement {max(cnn):.1f}x > 3x "
                       f"(paper: up to ~4-6x)"))
    # Heavier background training hurts the baseline more (the paper's
    # panel (d) ordering: MobileNetV2 < ResNet50 < VGG16).
    if {"MobileNetV2", "VGG16"} <= set(nmt):
        checks.append((nmt["VGG16"] > nmt["MobileNetV2"],
                       f"NMT gain grows with the trainer: VGG16 "
                       f"{nmt['VGG16']:.1f}x > MobileNetV2 "
                       f"{nmt['MobileNetV2']:.1f}x"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
