"""Figure 3: GPU idle fraction of the solo DL execution pipeline.

For nine CNNs on three GPUs (RTX 2080 Ti, V100, Jetson TX2) and two
modes (training BS=32, inference BS=128; TX2 uses BS=8), measure the
session length vs. the GPU busy time within it. The paper's findings to
reproduce: inference on fast GPUs is dominated by CPU preprocessing
(NASNetMobile >90% idle on the V100), training overlaps better, the
embedded TX2 is GPU-bound, and a faster GPU yields MORE idling.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.experiments.common import (
    ExperimentResult,
    fanout_map,
    gpu_idle_percent,
    run_solo,
)
from repro.hw import (
    GTX_1080_TI,
    RTX_2080_TI,
    TESLA_V100,
    jetson_tx2,
    single_gpu_server,
)
from repro.models import FIGURE3_MODELS, get_model

# (label, machine builder, machine args, train batch, infer batch,
#  data workers) — the paper's five subfigure configurations plus the
# 1080 Ti used elsewhere.
CONFIGS = [
    ("RTX 2080 Ti", single_gpu_server, (RTX_2080_TI,), 32, 128, 32),
    ("V100", single_gpu_server, (TESLA_V100,), 32, 128, 32),
    ("Jetson TX2", jetson_tx2, (), 8, 8, 4),
]


def _solo_idle_row(spec: Tuple) -> dict:
    """One (config, mode, model) cell — a fresh machine, a solo run.

    Module-level with plain-data args so :func:`fanout_map` can run the
    independent cells in worker processes.
    """
    (label, builder, args, batch, workers, training, model_name,
     iterations, warmup, seed) = spec
    model = get_model(model_name)
    ctx, stats = run_solo(
        builder, args, model, batch, training,
        iterations=iterations, seed=seed, data_workers=workers)
    gpu = ctx.machine.gpu(0)
    idle = gpu_idle_percent(ctx, stats, gpu.lane, warmup=warmup)
    # Whole-run busy fraction straight from the metrics registry (no
    # span post-processing) as a cross-check on the windowed idle
    # figure.
    busy_run = 100.0 * ctx.metrics.value(
        "gpu.busy_fraction", device=gpu.name)
    return dict(
        gpu=label,
        mode="training" if training else "inference",
        batch=batch,
        model=model_name,
        session_ms=stats.mean_iteration_ms(warmup=warmup),
        gpu_idle_pct=idle,
        gpu_busy_pct_run=busy_run,
    )


def run(iterations: int = 10, warmup: int = 2, seed: int = 0,
        models: Optional[List[str]] = None,
        configs: Optional[List[Tuple]] = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig3",
        title="Figure 3: GPU idle % in solo sessions "
              "(session length vs GPU busy time)")
    model_names = models or FIGURE3_MODELS
    specs = [
        (label, builder, args, train_bs if training else infer_bs,
         workers, training, model_name, iterations, warmup, seed)
        for label, builder, args, train_bs, infer_bs, workers in (
            configs or CONFIGS)
        for training in (True, False)
        for model_name in model_names
    ]
    # Every cell is independent (own machine, own seed derivation), so
    # they fan across processes; row order matches the spec order either
    # way.
    result.rows.extend(fanout_map(_solo_idle_row, specs))
    result.notes.append(
        "Paper shape: inference on fast GPUs mostly idle (NASNetMobile "
        ">90% on V100); training overlaps better; TX2 is GPU-bound; "
        "faster GPU => more idling.")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about this figure."""
    idle = {(row["gpu"], row["mode"], row["model"]): row["gpu_idle_pct"]
            for row in result.rows}
    nasnet = idle.get(("V100", "inference", "NASNetMobile"))
    v100_train = idle.get(("V100", "training", "ResNet50"))
    v100 = idle.get(("V100", "inference", "ResNet50"))
    t2080 = idle.get(("RTX 2080 Ti", "inference", "ResNet50"))
    tx2 = idle.get(("Jetson TX2", "inference", "ResNet50"))
    checks = []
    if nasnet is not None:
        checks.append((nasnet > 80, f"NASNetMobile V100 inference idle "
                                    f"{nasnet:.0f}% (paper: >90%)"))
    if v100 is not None and v100_train is not None:
        checks.append((v100_train < v100,
                       f"ResNet50 V100 train idle {v100_train:.0f}% < "
                       f"infer idle {v100:.0f}%"))
    if v100 is not None and t2080 is not None:
        checks.append((v100 >= t2080 - 1,
                       f"faster GPU idles more (V100 {v100:.0f}% >= "
                       f"2080Ti {t2080:.0f}%)"))
    if v100 is not None and tx2 is not None:
        checks.append((tx2 < v100 - 15,
                       f"TX2 GPU-bound (ResNet50 inference idle "
                       f"{tx2:.0f}% well below V100's {v100:.0f}%)"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
