"""Figure 9: input reuse among *different* models (V100, inference).

Distinct CNNs share the preprocessing stage. The paper's findings:
larger batches increase the gain (the CPU becomes the bottleneck),
and adding more co-run models has diminishing returns — no more than
three models per GPU are recommended.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines import SessionTimeSlicing
from repro.core import JobHandle, make_context
from repro.experiments.common import ExperimentResult
from repro.hw import TESLA_V100, single_gpu_server
from repro.metrics.throughput import improvement_percent
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation, run_multitask

BATCHES = [32, 64, 128]

# Model mixes: panel (a) varies the pairing, panel (b) the count.
PAIRINGS = [
    ["ResNet50", "InceptionV3"],
    ["ResNet50", "MobileNetV2"],
    ["VGG16", "DenseNet121"],
    ["MobileNet", "MobileNetV2"],
]
COUNT_MIX = ["ResNet50", "InceptionV3", "DenseNet121", "MobileNetV2"]


def _timeslicing_group(models: List[str], batch: int, iterations: int,
                       seed: int) -> float:
    ctx = make_context(single_gpu_server, TESLA_V100, seed=seed)
    gpu_name = ctx.machine.gpu(0).name
    jobs = [
        JobHandle(name=f"ts{i}/{name}", model=get_model(name), batch=batch,
                  training=False, preferred_device=gpu_name)
        for i, name in enumerate(models)
    ]
    run_colocation(ctx, SessionTimeSlicing, [
        JobSpec(job=job, iterations=iterations) for job in jobs])
    return sum(job.stats.throughput_items_per_s(warmup=1)
               for job in jobs) / len(jobs)


def _reuse_group(models: List[str], batch: int, iterations: int,
                 seed: int) -> float:
    ctx = make_context(single_gpu_server, TESLA_V100, seed=seed)
    outcome = run_multitask(
        ctx, [get_model(name) for name in models], batch,
        training=False, iterations=iterations)
    return outcome.items_per_second(batch, warmup=1)


def run(iterations: int = 8, seed: int = 0,
        batches: Optional[List[int]] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig9",
        title="Figure 9: input reuse among different models "
              "(V100 inference)")
    for batch in (batches or BATCHES):
        for models in PAIRINGS:
            baseline = _timeslicing_group(models, batch, iterations, seed)
            reuse = _reuse_group(models, batch, iterations, seed)
            result.add_row(
                panel="(a) pairings",
                models="+".join(models),
                batch=batch,
                n_models=len(models),
                improvement_pct=improvement_percent(baseline, reuse),
            )
    # Panel (b): diminishing returns with more co-run models.
    for count in (2, 3, 4):
        models = COUNT_MIX[:count]
        batch = 128
        baseline = _timeslicing_group(models, batch, iterations, seed)
        reuse = _reuse_group(models, batch, iterations, seed)
        result.add_row(
            panel="(b) model count",
            models="+".join(models),
            batch=batch,
            n_models=count,
            improvement_pct=improvement_percent(baseline, reuse),
        )
    result.notes.append(
        "Paper shape: larger batch => higher gain; diminishing per-model "
        "gain beyond 3 co-run models.")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Figure 9."""
    by_mix = {}
    for row in result.rows:
        if row["panel"] == "(a) pairings":
            by_mix.setdefault(row["models"], {})[row["batch"]] = \
                row["improvement_pct"]
    by_count = {row["n_models"]: row["improvement_pct"]
                for row in result.rows if row["panel"] == "(b) model count"}
    checks = []
    # Larger batches increase the gain (CPU becomes the bottleneck).
    trends = [batches for batches in by_mix.values()
              if {32, 128} <= set(batches)]
    if trends:
        checks.append((all(b[128] >= b[32] * 0.8 for b in trends),
                       "BS=128 gain >= 0.8x BS=32 gain for every pairing"))
    # Marginal gain per added model does not accelerate beyond two
    # (the paper's diminishing-returns recommendation of <=3 models).
    if {2, 3, 4} <= set(by_count):
        marginal_3 = by_count[3] - by_count[2]
        marginal_4 = by_count[4] - by_count[3]
        checks.append((marginal_4 < 1.2 * marginal_3,
                       f"4th model adds {marginal_4:.1f} pts < 1.2x the "
                       f"3rd's {marginal_3:.1f} pts"))
    checks.append((all(row["improvement_pct"] > 0 for row in result.rows),
                   "input reuse improves every cell"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
