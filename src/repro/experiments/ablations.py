"""Ablations of SwitchFlow's design choices.

The paper motivates several knobs without sweeping them; these harnesses
do the sweeps on the simulated substrate:

* **Temporary pool size** (Section 3.3: "a tradeoff between isolation
  and the performance of preempted jobs") — how fast a CPU-migrated
  victim runs vs. how much it perturbs the high-priority job.
* **CPU fallback** (Section 3.3) — with migration to the MKL executor
  disabled, a preempted job on a single-GPU machine must queue behind
  the preemptor instead.
* **Context-switch cost** (Section 2.2) — how the Figure 2 co-run
  collapse depends on the cross-context penalty of the device model.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

from repro.baselines import MultiThreadedTF
from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    RunContext,
    SwitchFlowPolicy,
)
from repro.core.context import make_context
from repro.experiments.common import ExperimentResult
from repro.hw import TESLA_V100, single_gpu_server
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation


def _single_gpu_preemption(seed: int, temporary_workers: int = 4,
                           allow_cpu_fallback: bool = True,
                           victim_model: str = "MobileNetV2",
                           high_iterations: int = 40):
    """High-priority trainer preempts a low-priority one on one V100.

    The victim defaults to MobileNetV2 so its CPU/MKL executor makes
    measurable progress within the high-priority job's run. Arrival
    offsets are retried until the preemptor actually lands while the
    victim holds the GPU (a lightweight victim's gate is often free).
    """
    for attempt in range(10):
        ctx = make_context(single_gpu_server, TESLA_V100, seed=seed,
                           temporary_workers=temporary_workers)
        gpu_name = ctx.machine.gpu(0).name
        victim = JobHandle(
            name="victim", model=get_model(victim_model), batch=32,
            training=True, priority=PRIORITY_LOW,
            preferred_device=gpu_name)
        high = JobHandle(
            name="high", model=get_model("ResNet50"), batch=32,
            training=True, priority=PRIORITY_HIGH,
            preferred_device=gpu_name)
        run_colocation(
            ctx,
            lambda c: SwitchFlowPolicy(
                c, allow_cpu_fallback=allow_cpu_fallback),
            [JobSpec(job=victim, iterations=100_000, background=True),
             JobSpec(job=high, iterations=high_iterations,
                     start_delay_ms=500.0 + attempt * 13.0)])
        if victim.stats.preemptions >= 1:
            break
    return ctx, victim, high


def temporary_pool_tradeoff(sizes: List[int] = (1, 2, 4, 8),
                            seed: int = 0,
                            iterations: int = 30) -> ExperimentResult:
    """Sweep the temporary pool size for a CPU-resident (MKL) job.

    The scenario Section 3.3 describes: a preempted job parked on the
    CPU executor in the temporary pool, co-located with a high-priority
    GPU trainer. More temporary workers speed the MKL executor up but
    steal host cores from the GPU job's dispatch/pipeline.
    """
    result = ExperimentResult(
        name="ablation-temp-pool",
        title="Ablation: temporary thread-pool size "
              "(CPU-resident MKL job vs GPU trainer)")
    for size in sizes:
        ctx = make_context(single_gpu_server, TESLA_V100, seed=seed,
                           temporary_workers=size)
        cpu_job = JobHandle(
            name="victim", model=get_model("MobileNetV2"), batch=32,
            training=True, priority=PRIORITY_LOW,
            preferred_device=ctx.machine.cpu.name)
        cpu_job.in_temporary_pool = True
        gpu_job = JobHandle(
            name="high", model=get_model("ResNet50"), batch=32,
            training=True, priority=PRIORITY_HIGH,
            preferred_device=ctx.machine.gpu(0).name)
        run_colocation(ctx, SwitchFlowPolicy, [
            JobSpec(job=cpu_job, iterations=100_000, background=True),
            JobSpec(job=gpu_job, iterations=iterations),
        ])
        result.add_row(
            temporary_workers=len(ctx.temporary_pool.workers),
            victim_imgs_per_s=cpu_job.stats.throughput_items_per_s(),
            high_imgs_per_s=gpu_job.stats.throughput_items_per_s(
                warmup=1),
            victim_device=cpu_job.assigned_device,
        )
    result.notes.append(
        "Paper tradeoff: more temporary workers speed up the preempted "
        "job's MKL executor but take cores from the global pool.")
    return result


def cpu_fallback_ablation(seed: int = 0) -> ExperimentResult:
    """Disable migration-to-CPU: the victim must wait for the GPU.

    Uses a GPU-bound victim (ResNet50) so its executor actually holds
    the gate when the preemptor arrives; a pipeline-bound victim
    self-schedules into alternation and never needs preempting.
    """
    result = ExperimentResult(
        name="ablation-cpu-fallback",
        title="Ablation: CPU/MKL fallback on a single-GPU machine")
    for fallback in (True, False):
        ctx, victim, high = _single_gpu_preemption(
            seed, allow_cpu_fallback=fallback,
            victim_model="ResNet50", high_iterations=25)
        result.add_row(
            cpu_fallback="enabled" if fallback else "disabled",
            victim_device=victim.assigned_device,
            victim_imgs_per_s=victim.stats.throughput_after(500.0),
            high_imgs_per_s=high.stats.throughput_items_per_s(warmup=1),
            preemptions=victim.stats.preemptions,
        )
    result.notes.append(
        "With the fallback disabled the victim queues behind the "
        "high-priority job (priority gate), trading progress for zero "
        "MKL interference.")
    return result


def context_switch_sensitivity(
        overheads_ms: List[float] = (0.0, 0.15, 0.30, 0.60),
        seed: int = 0, batch: int = 16,
        iterations: int = 10) -> ExperimentResult:
    """Figure 2 co-run throughput vs the cross-context switch cost."""
    result = ExperimentResult(
        name="ablation-context-switch",
        title="Ablation: GPU context-switch overhead vs co-run "
              "throughput (two ResNet50s, V100)")
    model = get_model("ResNet50")
    for overhead in overheads_ms:
        spec = replace(TESLA_V100, context_switch_overhead_ms=overhead)
        ctx = make_context(single_gpu_server, spec, seed=seed)
        gpu_name = ctx.machine.gpu(0).name
        jobs = [
            JobHandle(name=f"resnet50-{i}", model=model, batch=batch,
                      training=True, preferred_device=gpu_name)
            for i in range(2)
        ]
        run_colocation(ctx, MultiThreadedTF, [
            JobSpec(job=job, iterations=iterations) for job in jobs])
        per_model = sum(job.stats.throughput_items_per_s(warmup=2)
                        for job in jobs) / 2
        result.add_row(
            context_switch_ms=overhead,
            per_model_imgs_per_s=per_model,
            switches=ctx.machine.gpu(0).context_switches,
        )
    result.notes.append(
        "The calibrated 0.30 ms reproduces the paper's 226->116 img/s "
        "collapse; 0 ms shows what free interleaving would give.")
    return result


#: Study name -> harness, in the order ``run`` concatenates them.
STUDIES = {
    "temporary_pool": temporary_pool_tradeoff,
    "cpu_fallback": cpu_fallback_ablation,
    "context_switch": context_switch_sensitivity,
}


def run(seed: int = 0,
        studies: Sequence[str] = tuple(STUDIES)) -> ExperimentResult:
    """The selected ablations (default: all), concatenated."""
    combined = ExperimentResult(
        name="ablations", title="SwitchFlow design ablations")
    for study in studies:
        part = STUDIES[study](seed=seed)
        combined.rows.extend(
            [{"study": part.name, **row} for row in part.rows])
        combined.notes.extend(part.notes)
    return combined


def headline_checks(result: ExperimentResult) -> List[str]:
    """The tradeoff each ablation exposes, for the studies that ran."""
    def column(study: str, key: str, value: str) -> List[float]:
        rows = sorted((row for row in result.rows if row["study"] == study),
                      key=lambda row: row[key])
        return [row[value] for row in rows]

    checks = []
    # More temporary workers: victim speeds up, high-priority job pays.
    victims = column("ablation-temp-pool", "temporary_workers",
                     "victim_imgs_per_s")
    highs = column("ablation-temp-pool", "temporary_workers",
                   "high_imgs_per_s")
    if victims:
        checks.append((victims == sorted(victims) and
                       highs == sorted(highs, reverse=True),
                       "more temporary workers speed the CPU victim up "
                       "and slow the GPU job down"))
    by_mode = {row["cpu_fallback"]: row for row in result.rows
               if row["study"] == "ablation-cpu-fallback"}
    if {"enabled", "disabled"} <= set(by_mode):
        enabled, disabled = by_mode["enabled"], by_mode["disabled"]
        checks.append((enabled["victim_device"] != "Tesla V100"
                       and disabled["victim_device"] == "Tesla V100",
                       f"the victim leaves the GPU only with the CPU "
                       f"fallback (-> {enabled['victim_device']})"))
        # Without the fallback the high-priority job keeps being
        # contended.
        checks.append((enabled["high_imgs_per_s"]
                       > disabled["high_imgs_per_s"],
                       f"the fallback speeds the high-priority job up "
                       f"({enabled['high_imgs_per_s']:.0f} > "
                       f"{disabled['high_imgs_per_s']:.0f} img/s)"))
    throughputs = column("ablation-context-switch", "context_switch_ms",
                         "per_model_imgs_per_s")
    if throughputs:
        checks.append((throughputs == sorted(throughputs, reverse=True),
                       "co-run throughput falls as the context-switch "
                       "cost grows"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
