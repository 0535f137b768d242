"""Figure 8: input reuse between two identical models vs time slicing.

Two copies of the same model process the same batches. The baseline is
session-based time slicing (no data reuse, exclusive CPU+GPU per
session). SwitchFlow merges the graphs: one shared preprocessing
pipeline, GPU executors in lockstep. The paper's findings: up to ~65%
improvement for inference (CPU-bound pipelines), marginal for training,
lower gains on the TX2 where the GPU itself is the bottleneck.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines import SessionTimeSlicing
from repro.core import JobHandle, make_context
from repro.experiments.common import ExperimentResult
from repro.hw import RTX_2080_TI, TESLA_V100, jetson_tx2, single_gpu_server
from repro.metrics.throughput import improvement_percent
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation, run_multitask

# (panel label, machine builder, args, training, batch, data workers).
CONFIGS = [
    ("(a) 2080Ti train BS=32", single_gpu_server, (RTX_2080_TI,),
     True, 32, 32),
    ("(b) V100 train BS=32", single_gpu_server, (TESLA_V100,),
     True, 32, 32),
    ("(c) 2080Ti infer BS=128", single_gpu_server, (RTX_2080_TI,),
     False, 128, 32),
    ("(d) V100 infer BS=128", single_gpu_server, (TESLA_V100,),
     False, 128, 32),
    ("(e) TX2 infer BS=8", jetson_tx2, (), False, 8, 4),
]

DEFAULT_MODELS = ["ResNet50", "VGG16", "DenseNet121", "InceptionV3",
                  "InceptionResNetV2", "MobileNet", "MobileNetV2",
                  "NASNetMobile"]
COMPUTE_BOUND_MODELS = ["ResNet50", "VGG16", "DenseNet121", "InceptionV3",
                        "InceptionResNetV2"]


def timeslicing_pair_throughput(machine_builder, machine_args,
                                model_name: str, batch: int,
                                training: bool, iterations: int,
                                data_workers: int, seed: int) -> float:
    """Per-model items/s of two identical jobs under time slicing."""
    ctx = make_context(machine_builder, *machine_args, seed=seed)
    gpu_name = ctx.machine.gpu(0).name
    model = get_model(model_name)
    jobs = [
        JobHandle(name=f"ts{i}/{model_name}", model=model, batch=batch,
                  training=training, preferred_device=gpu_name,
                  data_workers=data_workers)
        for i in range(2)
    ]
    run_colocation(ctx, SessionTimeSlicing, [
        JobSpec(job=job, iterations=iterations) for job in jobs])
    return sum(job.stats.throughput_items_per_s(warmup=1)
               for job in jobs) / len(jobs)


def reuse_pair_throughput(machine_builder, machine_args, model_name: str,
                          batch: int, training: bool, iterations: int,
                          data_workers: int, seed: int) -> float:
    """Per-model items/s of the merged (input reuse) execution."""
    ctx = make_context(machine_builder, *machine_args, seed=seed)
    model = get_model(model_name)
    outcome = run_multitask(ctx, [model, model], batch, training,
                            iterations, data_workers=data_workers)
    return outcome.items_per_second(batch, warmup=1)


def run(iterations: int = 8, seed: int = 0,
        models: Optional[List[str]] = None,
        configs: Optional[List[Tuple]] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig8",
        title="Figure 8: input reuse between two identical models vs "
              "session time slicing")
    for (label, builder, args, training, batch, workers) in (
            configs or CONFIGS):
        for model_name in (models or DEFAULT_MODELS):
            baseline = timeslicing_pair_throughput(
                builder, args, model_name, batch, training, iterations,
                workers, seed)
            reuse = reuse_pair_throughput(
                builder, args, model_name, batch, training, iterations,
                workers, seed)
            result.add_row(
                panel=label,
                model=model_name,
                timeslicing_items_per_s=baseline,
                input_reuse_items_per_s=reuse,
                improvement_pct=improvement_percent(baseline, reuse),
            )
    result.notes.append(
        "Paper shape: large gains for inference (up to ~65%), marginal "
        "for training, lower on the GPU-bound TX2.")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Figure 8."""
    gains: Dict[str, Dict[str, float]] = {}
    for row in result.rows:
        gains.setdefault(row["panel"][:3], {})[row["model"]] = \
            row["improvement_pct"]
    train, infer = gains.get("(b)", {}), gains.get("(d)", {})
    # For compute-bound V100 models, training gains are marginal while
    # inference gains are large (paper: "marginal" vs "up to 65%").
    heavy = [m for m in COMPUTE_BOUND_MODELS if m in train and m in infer]
    checks = []
    if heavy:
        checks += [
            (all(train[m] < 15.0 for m in heavy),
             f"compute-bound V100 training gains < 15% (max "
             f"{max(train[m] for m in heavy):.1f}%)"),
            (all(infer[m] > train[m] for m in heavy),
             "compute-bound V100 inference gains exceed training gains"),
            (max(infer[m] for m in heavy) > 40.0,
             f"best compute-bound V100 inference gain "
             f"{max(infer[m] for m in heavy):.1f}% > 40%"),
        ]
    # On the V100, complex models gain more than lightweight ones; on
    # the GPU-bound TX2, lightweight models gain more.
    for panel, more, less in (("(d)", "ResNet50", "MobileNetV2"),
                              ("(e)", "MobileNetV2", "ResNet50")):
        gain = gains.get(panel, {})
        if more in gain and less in gain:
            checks.append((gain[more] > gain[less],
                           f"panel {panel} inference: {more} "
                           f"{gain[more]:.1f}% > {less} {gain[less]:.1f}%"))
    checks.append((all(row["improvement_pct"] > 0 for row in result.rows),
                   "input reuse improves every cell"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
