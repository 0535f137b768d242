"""Figure 7: throughput of two training jobs sharing a GPU.

Panels (a)-(b): multi-threaded TF on the 11 GB GPUs — both models slow
down and some pairs crash with OOM. Panel (c): NVIDIA MPS on the 32 GB
V100 — completes, but both models still suffer. Panels (d)-(f):
SwitchFlow — the high-priority job preempts; the low-priority job
migrates to a slower GPU (acceptable throughput) or to the CPU
(drastic drop); nothing crashes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.baselines import MPSPolicy, MultiThreadedTF
from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    RunContext,
    SwitchFlowPolicy,
    make_context,
)
from repro.experiments.common import ExperimentResult, solo_throughput
from repro.hw import (
    GTX_1080_TI,
    RTX_2080_TI,
    TESLA_V100,
    single_gpu_server,
    two_gpu_server,
)
from repro.models import get_model

# The co-run partners used across the paper's panels.
PARTNER_MODELS = ["ResNet50", "VGG16", "DenseNet121", "DenseNet169",
                  "InceptionResNetV2", "InceptionV3"]
TRAIN_BATCH = 32


def _corun(ctx: RunContext, policy_factory, first: JobHandle,
           second: JobHandle, iterations: int,
           second_delay_ms: float = 0.0):
    from repro.workloads import JobSpec, run_colocation

    return run_colocation(ctx, policy_factory, [
        JobSpec(job=first, iterations=iterations),
        JobSpec(job=second, iterations=iterations,
                start_delay_ms=second_delay_ms),
    ])


def shared_gpu_panel(result: ExperimentResult, panel: str,
                     policy_factory: Callable, machine_builder,
                     machine_args: Sequence, background_model: str,
                     partners: List[str], iterations: int,
                     seed: int) -> None:
    """Panels (a)-(c): both jobs pinned to one GPU, equal priority."""
    for partner in partners:
        ctx = make_context(machine_builder, *machine_args, seed=seed)
        gpu_name = ctx.machine.gpu(0).name
        background = JobHandle(
            name=f"bg/{background_model}", model=get_model(background_model),
            batch=TRAIN_BATCH, training=True, preferred_device=gpu_name)
        foreground = JobHandle(
            name=f"fg/{partner}", model=get_model(partner),
            batch=TRAIN_BATCH, training=True, preferred_device=gpu_name)
        results = _corun(ctx, policy_factory, background, foreground,
                         iterations)
        solo = solo_throughput(machine_builder, machine_args,
                               get_model(partner), TRAIN_BATCH, True,
                               seed=seed)
        result.add_row(
            panel=panel,
            background=background_model,
            model=partner,
            model_imgs_per_s=foreground.stats
            .throughput_items_per_s(warmup=1),
            background_imgs_per_s=background.stats
            .throughput_items_per_s(warmup=1),
            model_solo_imgs_per_s=solo,
            oom=",".join(results.crashed_jobs()) or "none",
        )


def switchflow_panel(result: ExperimentResult, panel: str, machine_builder,
                     machine_args: Sequence, low_model: str,
                     partners: List[str], iterations: int, seed: int,
                     arrival_delay_ms: float = 800.0) -> None:
    """Panels (d)-(f): high-priority arrival preempts the low job."""
    from repro.workloads import JobSpec, run_colocation

    for partner in partners:
        ctx = make_context(machine_builder, *machine_args, seed=seed)
        fastest = max(ctx.machine.gpus,
                      key=lambda gpu: gpu.spec.peak_fp32_tflops)
        low = JobHandle(
            name=f"low/{low_model}", model=get_model(low_model),
            batch=TRAIN_BATCH, training=True, priority=PRIORITY_LOW,
            preferred_device=fastest.name)
        high = JobHandle(
            name=f"high/{partner}", model=get_model(partner),
            batch=TRAIN_BATCH, training=True, priority=PRIORITY_HIGH,
            preferred_device=fastest.name)
        # The low job runs until the high job finishes (background);
        # its reported throughput covers only the contended window.
        results = run_colocation(ctx, SwitchFlowPolicy, [
            JobSpec(job=low, iterations=100_000, background=True),
            JobSpec(job=high, iterations=iterations,
                    start_delay_ms=arrival_delay_ms),
        ])
        solo = solo_throughput(machine_builder, machine_args,
                               get_model(partner), TRAIN_BATCH, True,
                               seed=seed)
        result.add_row(
            panel=panel,
            background=f"{low_model} (low)",
            model=f"{partner} (high)",
            model_imgs_per_s=high.stats.throughput_items_per_s(warmup=1),
            background_imgs_per_s=low.stats
            .throughput_after(arrival_delay_ms),
            model_solo_imgs_per_s=solo,
            oom=",".join(results.crashed_jobs()) or "none",
            low_final_device=low.assigned_device,
            preemptions=low.stats.preemptions,
        )


def run(iterations: int = 10, seed: int = 0,
        partners: Optional[List[str]] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig7",
        title="Figure 7: throughput of two co-running training jobs "
              f"(BS={TRAIN_BATCH})")
    chosen = partners or PARTNER_MODELS
    shared_gpu_panel(result, "(a) TF / GTX 1080 Ti", MultiThreadedTF,
                     single_gpu_server, (GTX_1080_TI,), "ResNet50",
                     chosen, iterations, seed)
    shared_gpu_panel(result, "(b) TF / RTX 2080 Ti", MultiThreadedTF,
                     single_gpu_server, (RTX_2080_TI,), "VGG16",
                     chosen, iterations, seed)
    shared_gpu_panel(result, "(c) MPS / V100",
                     lambda ctx: MPSPolicy(ctx, reserve="growth"),
                     single_gpu_server, (TESLA_V100,), "ResNet50",
                     chosen, iterations, seed)
    switchflow_panel(result, "(d) SwitchFlow / CPU+2080Ti",
                     single_gpu_server, (RTX_2080_TI,), "ResNet50",
                     chosen, iterations, seed)
    switchflow_panel(result, "(e) SwitchFlow / 1080Ti+2080Ti",
                     two_gpu_server, (), "ResNet50",
                     chosen, iterations, seed)
    switchflow_panel(result, "(f) SwitchFlow / 1080Ti+2080Ti",
                     two_gpu_server, (), "VGG16",
                     chosen, iterations, seed)
    result.notes.append(
        "Paper shape: (a)(b) heavy mutual slowdown plus OOM crashes for "
        "large pairs; (c) completes on the 32 GB V100 but still slow; "
        "(d)-(f) no crashes, high-priority job near-solo throughput, "
        "low job migrated to the slower GPU or (d) the CPU.")
    return result


def mps_default_mode_crashes(seed: int = 0) -> List[str]:
    """The paper's 'all models crash under MPS on 11 GB GPUs' check."""
    ctx = make_context(single_gpu_server, RTX_2080_TI, seed=seed)
    gpu_name = ctx.machine.gpu(0).name
    first = JobHandle(name="mps/first", model=get_model("ResNet50"),
                      batch=TRAIN_BATCH, training=True,
                      preferred_device=gpu_name)
    second = JobHandle(name="mps/second", model=get_model("MobileNetV2"),
                       batch=TRAIN_BATCH, training=True,
                       preferred_device=gpu_name)
    results = _corun(ctx, lambda c: MPSPolicy(c, reserve="default"),
                     first, second, iterations=3)
    return results.crashed_jobs()


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Figure 7."""
    def ratio(row) -> float:
        return row["model_imgs_per_s"] / row["model_solo_imgs_per_s"]

    tf_rows = [row for row in result.rows
               if row["panel"].startswith(("(a)", "(b)"))]
    mps_rows = [row for row in result.rows if "MPS" in row["panel"]]
    sf_rows = [row for row in result.rows if "SwitchFlow" in row["panel"]]
    survivors = [row for row in tf_rows if row["oom"] == "none"]
    sf_ratios = [ratio(row) for row in sf_rows]
    near_solo = sum(1 for value in sf_ratios if value >= 0.85)
    checks = [
        # (a)(b): the 11 GB GPUs see OOM crashes for heavy pairs, and
        # surviving pairs suffer mutual slowdown.
        (any(row["oom"] != "none" for row in tf_rows),
         "(a)(b) threaded TF on 11 GB GPUs crashes some pairs with OOM"),
        (bool(survivors) and all(ratio(row) < 0.85 for row in survivors),
         f"(a)(b) all {len(survivors)} surviving TF pairs run < 0.85x "
         f"solo"),
        # (c): MPS on the 32 GB V100 completes but is slow.
        (all(row["oom"] == "none" and ratio(row) < 0.9 for row in mps_rows),
         "(c) MPS on the 32 GB V100 completes every pair at < 0.9x solo"),
        # (d)-(f): SwitchFlow never crashes and preempts.
        (all(row["oom"] == "none" and row["preemptions"] >= 1
             for row in sf_rows),
         "(d)-(f) SwitchFlow never crashes and preempts in every cell"),
        # The paper itself observes a residual loss ("the low priority
        # job occupied a few worker threads") — largest when the victim
        # lands on the CPU (panel (d)), where its MKL executor and
        # pipeline keep burning host cores.
        (all(value > 0.55 for value in sf_ratios),
         f"(d)-(f) high-priority job keeps > 0.55x solo (min "
         f"{min(sf_ratios):.2f}x)"),
        (near_solo >= len(sf_ratios) // 2,
         f"(d)-(f) {near_solo} of {len(sf_ratios)} cells at >= 0.85x "
         f"solo (at least half)"),
    ]
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
