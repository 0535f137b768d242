"""Table 1: model state size and GPU-to-GPU transfer time over PCIe 3.0.

Stateful variables are the weights plus one optimizer slot (2x fp32
parameter bytes — this identity reproduces the paper's MiB column to
within rounding). Transfer time is measured by actually migrating the
job's state between two GPUs in the simulator, exercising the same
ResourceManager path preemption uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.integration import enforce
from repro.core import make_context
from repro.experiments.common import ExperimentResult
from repro.hw import PCIE3_X16, transfer_time_ms, v100_server
from repro.models import get_model

MiB = 1024 ** 2

# The paper's Table 1 (MiB, ms) for side-by-side comparison.
PAPER_TABLE1: Dict[str, Tuple[float, float]] = {
    "ResNet50": (198.53, 28.838),
    "VGG16": (1055.58, 103.747),
    "VGG19": (1096.09, 109.416),
    "DenseNet121": (64.83, 39.823),
    "DenseNet169": (108.61, 45.236),
    "InceptionResNetV2": (426.18, 82.137),
    "InceptionV3": (182.00, 31.613),
    "MobileNetV2": (27.25, 17.505),
}


def simulated_transfer_ms(model_name: str, seed: int = 0) -> float:
    """Migrate a registered job's state GPU0 -> GPU1; returns the ms.

    The latency is read back from the run's metrics registry
    (``rm.transfer_ms``, recorded by the ResourceManager) — the same
    series every preemption migration publishes — rather than being
    re-timed by the experiment.
    """
    ctx = make_context(v100_server, 2, seed=seed)
    model = get_model(model_name)
    ctx.resources.register_job(
        "job", model.stateful_bytes, model.state_tensor_count)
    gpu0, gpu1 = ctx.machine.gpus

    def _migrate():
        yield ctx.resources.ensure_state("job", gpu0.name)
        yield ctx.resources.ensure_state("job", gpu1.name)

    process = ctx.engine.process(_migrate())
    ctx.engine.run(until=process)
    # Under --sanitize, check the migration trace (this path exercises
    # the same ResourceManager machinery preemption relies on).
    enforce(ctx, label=f"table1/{model_name}")
    family = ctx.metrics.get("rm.transfer_ms")
    samples = family.all_samples() if family is not None else []
    if len(samples) != 1:
        raise RuntimeError(
            f"expected exactly one state transfer, saw {len(samples)}")
    return samples[0]


def run(models: Optional[List[str]] = None, simulate: bool = True,
        seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        name="table1",
        title="Table 1: model state transfer over PCIe 3.0 x16")
    for model_name in (models or list(PAPER_TABLE1)):
        model = get_model(model_name)
        analytic = transfer_time_ms(
            PCIE3_X16, model.stateful_bytes, model.state_tensor_count)
        simulated = (simulated_transfer_ms(model_name, seed=seed)
                     if simulate else None)
        paper_mib, paper_ms = PAPER_TABLE1.get(model_name, (None, None))
        result.add_row(
            model=model_name,
            stateful_mib=model.stateful_bytes / MiB,
            paper_mib=paper_mib,
            transfer_ms=simulated if simulated is not None else analytic,
            analytic_ms=analytic,
            paper_ms=paper_ms,
        )
    result.notes.append(
        "stateful = weights + momentum = 2 x fp32 parameter bytes; "
        "transfer = latency + per-tensor setup + payload/10.5 GiB/s.")
    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """Table 1's sizes and transfer times, within calibration tolerance."""
    checks = []
    rows = [row for row in result.rows if row["paper_mib"] is not None]
    for measured, paper, tolerance, what in (
            ("stateful_mib", "paper_mib", 0.06, "stateful sizes"),
            ("transfer_ms", "paper_ms", 0.30, "transfer times")):
        ok = all(abs(row[measured] - row[paper]) <= tolerance * row[paper]
                 for row in rows)
        worst = max((abs(row[measured] - row[paper]) / row[paper]
                     for row in rows), default=0.0)
        checks.append((ok, f"{what} within {100 * tolerance:.0f}% of the "
                           f"paper (worst {100 * worst:.1f}%)"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
