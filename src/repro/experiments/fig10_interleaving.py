"""Figure 10: interleaving independent models vs session time slicing.

No input sharing here — the models are independent. SwitchFlow's gain
comes purely from its second invariant: CPU executors run freely while
GPU executors alternate, so one job's preprocessing overlaps the
other's compute. The paper reports ~30% consistent gains among
inference jobs and smaller gains (up to ~20%) against a training
co-runner.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines import SessionTimeSlicing
from repro.core import JobHandle, SwitchFlowPolicy, make_context
from repro.experiments.common import ExperimentResult
from repro.hw import TESLA_V100, single_gpu_server
from repro.metrics.throughput import improvement_percent
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation

# (panel, co-runner model, co-runner training?, co-runner batch).
PANELS: List[Tuple[str, str, bool, int]] = [
    ("(a) vs VGG16 inference BS=128", "VGG16", False, 128),
    ("(b) vs NASNetLarge inference BS=128", "NASNetLarge", False, 128),
    ("(c) vs VGG16 training BS=128", "VGG16", True, 128),
]

DEFAULT_MODELS = ["ResNet50", "DenseNet121", "InceptionV3", "MobileNet",
                  "MobileNetV2", "NASNetMobile"]
INFER_BATCH = 128


def _pair_throughput(policy_factory, model_name: str, partner: str,
                     partner_training: bool, partner_batch: int,
                     iterations: int, seed: int) -> float:
    """items/s of the measured model when co-run with the partner."""
    ctx = make_context(single_gpu_server, TESLA_V100, seed=seed)
    gpu_name = ctx.machine.gpu(0).name
    measured = JobHandle(
        name=f"measured/{model_name}", model=get_model(model_name),
        batch=INFER_BATCH, training=False, preferred_device=gpu_name)
    other = JobHandle(
        name=f"partner/{partner}", model=get_model(partner),
        batch=partner_batch, training=partner_training,
        preferred_device=gpu_name)
    run_colocation(ctx, policy_factory, [
        JobSpec(job=measured, iterations=iterations),
        JobSpec(job=other, iterations=100_000, background=True),
    ])
    return measured.stats.throughput_items_per_s(warmup=1)


def run(iterations: int = 8, seed: int = 0,
        models: Optional[List[str]] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig10",
        title="Figure 10: interleaving independent models vs session "
              "time slicing (V100)")
    for panel, partner, partner_training, partner_batch in PANELS:
        for model_name in (models or DEFAULT_MODELS):
            baseline = _pair_throughput(
                SessionTimeSlicing, model_name, partner,
                partner_training, partner_batch, iterations, seed)
            interleaved = _pair_throughput(
                SwitchFlowPolicy, model_name, partner,
                partner_training, partner_batch, iterations, seed)
            result.add_row(
                panel=panel,
                model=model_name,
                timeslicing_items_per_s=baseline,
                switchflow_items_per_s=interleaved,
                improvement_pct=improvement_percent(baseline, interleaved),
            )
    result.notes.append(
        "Paper shape: consistent ~30% gains among inference jobs; "
        "smaller gains (<=20%) against a heavy training co-runner.")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Figure 10.

    Interleaving never loses, and wins clearly wherever the co-runner is
    GPU-bound. Cells where BOTH jobs are CPU-bound compress toward 0 —
    there is no idle GPU time to reclaim.
    """
    worst = min(row["improvement_pct"] for row in result.rows)
    checks = [(worst > -2.0,
               f"interleaving never loses (worst {worst:.1f}% > -2%)")]
    for panel_key in ("NASNetLarge", "training"):
        gains = [row["improvement_pct"] for row in result.rows
                 if panel_key in row["panel"]]
        if gains:
            checks.append((max(gains) > 15.0,
                           f"best gain vs the {panel_key} co-runner "
                           f"{max(gains):.1f}% > 15%"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
