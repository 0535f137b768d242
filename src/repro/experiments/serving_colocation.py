"""Serving co-location: SLO-aware inference serving vs the baselines.

The paper's headline serving claim (§3.3, Figure 6 setting): a
latency-bound inference stream co-located with training keeps its tail
only if the scheduler can preempt the trainer at arrival time.
This experiment serves an open-loop MobileNetV2 request stream —
admission queue, size/timeout batching, load shedding — against a
ResNet50 trainer on the same GPU, and sweeps the arrival rate under
SwitchFlow, session time slicing, and MPS.

The SLO budget is derived, not hardcoded: ``SLO_FACTOR`` times the
solo (uncontended) mean batch-service time, so it tracks the cost
model. Reported per cell: latency percentiles, goodput (SLO-meeting
completions/s), shed rate, and the trainer's background progress.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines import MPSPolicy, MultiThreadedTF, SessionTimeSlicing
from repro.core import current_options, make_context
from repro.core.job import JobHandle, PRIORITY_HIGH, PRIORITY_LOW
from repro.core.switchflow import SwitchFlowPolicy
from repro.experiments.common import (ExperimentResult, fanout_map,
                                      solo_mean_ms)
from repro.hw import v100_server
from repro.models import get_model
from repro.serving import SLOTarget, ServedModelSpec, make_trace, run_serving
from repro.workloads.colocation import JobSpec

#: p99 budget as a multiple of the solo mean batch-service time.
SLO_FACTOR = 3.0
BG_MODEL = "ResNet50"
FG_MODEL = "MobileNetV2"
MAX_BATCH = 8
BATCH_TIMEOUT_MS = 5.0
QUEUE_CAPACITY = 64
SHED_POLICY = "drop-newest"
TRACE_KIND = "poisson"
WARMUP = 2

_POLICIES = {
    "SwitchFlow": SwitchFlowPolicy,
    "TimeSlicing": SessionTimeSlicing,
    "MPS": MPSPolicy,
}

#: The co-location operating point the headline check is made at.
DEFAULT_RATE = 30.0
FULL_RATES = (15.0, 30.0, 60.0, 90.0)
QUICK_RATES = (DEFAULT_RATE,)
FULL_DURATION_MS = 4_000.0
QUICK_DURATION_MS = 2_000.0


def _run_cell(cell) -> Dict[str, object]:
    """One (policy, rate) cell. Module-level and plain-data in/out so
    the sweep fans across ``fanout_map`` workers."""
    policy_name, rate, duration_ms, seed, slo_ms = cell
    ctx = make_context(v100_server, 2, seed=seed)
    gpu = ctx.machine.gpu(0).name
    trace = make_trace(ctx.rng, "fg-serve", TRACE_KIND, rate,
                       duration_ms)
    served = ServedModelSpec(
        job=JobHandle(name="fg-serve", model=get_model(FG_MODEL),
                      batch=MAX_BATCH, training=False,
                      priority=PRIORITY_HIGH, preferred_device=gpu),
        trace=trace, max_batch=MAX_BATCH,
        batch_timeout_ms=BATCH_TIMEOUT_MS,
        queue_capacity=QUEUE_CAPACITY, shed_policy=SHED_POLICY,
        slo=SLOTarget(p99_ms=slo_ms))
    background = JobSpec(
        job=JobHandle(name="bg-train", model=get_model(BG_MODEL),
                      batch=32, training=True, priority=PRIORITY_LOW,
                      preferred_device=gpu),
        iterations=100_000, background=True)
    result = run_serving(ctx, _POLICIES[policy_name], [served],
                         [background])
    stream = result.served("fg-serve")
    summary = stream.latency_summary()
    return {
        "policy": policy_name,
        "rate_rps": rate,
        "p50_ms": summary.p50 if summary else float("nan"),
        "p95_ms": summary.p95 if summary else float("nan"),
        "p99_ms": summary.p99 if summary else float("nan"),
        "goodput_rps": stream.goodput_rps,
        "shed_pct": stream.shed_pct,
        "slo": "met" if (summary is not None
                         and summary.p99 <= slo_ms) else "MISS",
        "bg_iters": result.stats["bg-train"].iterations,
        "crashed": ",".join(result.crashed_jobs()) or "-",
    }


def run(duration_ms: float = FULL_DURATION_MS,
        rates: Sequence[float] = FULL_RATES,
        seed: int = 0) -> ExperimentResult:
    plan = current_options().faults
    solo = make_context(v100_server, 2, seed=seed,
                        fault_plan=None if plan is None else plan.scaled(0))
    slo_ms = SLO_FACTOR * solo_mean_ms(solo, MultiThreadedTF, "solo-serve",
                                       get_model(FG_MODEL), MAX_BATCH,
                                       WARMUP + 10, WARMUP)

    cells = [(policy, rate, duration_ms, seed, slo_ms)
             for rate in rates for policy in _POLICIES]
    rows: List[Dict[str, object]] = fanout_map(_run_cell, cells)

    result = ExperimentResult(
        name="serving_colocation",
        title=f"Serving co-location: latency/goodput vs arrival rate "
              f"(SLO = {SLO_FACTOR:g}x solo batch = {slo_ms:.1f} ms, "
              f"seed {seed})")
    for row in rows:
        result.add_row(**row)
    result.notes.append(
        f"open-loop {TRACE_KIND} arrivals, max batch {MAX_BATCH} "
        f"(padded static), batching window {BATCH_TIMEOUT_MS:g} ms, "
        f"queue {QUEUE_CAPACITY} ({SHED_POLICY}); background "
        f"{BG_MODEL} training shares the GPU. Goodput counts "
        f"SLO-meeting completions per second of offered load.")

    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about serving."""
    def cell(policy: str) -> Optional[Dict[str, object]]:
        for row in result.rows:
            if (row["policy"] == policy
                    and row["rate_rps"] == DEFAULT_RATE):
                return row
        return None

    switchflow = cell("SwitchFlow")
    timeslicing = cell("TimeSlicing")
    if switchflow is None or timeslicing is None:
        return [f"FAIL: no cells at the {DEFAULT_RATE:g} rps operating "
                f"point"]
    checks = [
        (switchflow["p99_ms"] < timeslicing["p99_ms"],
         f"SwitchFlow p99 {switchflow['p99_ms']:.0f}ms < TimeSlicing "
         f"p99 {timeslicing['p99_ms']:.0f}ms at {DEFAULT_RATE:g} rps"),
        (switchflow["goodput_rps"] >= timeslicing["goodput_rps"],
         f"SwitchFlow goodput {switchflow['goodput_rps']:.1f} rps >= "
         f"TimeSlicing {timeslicing['goodput_rps']:.1f} rps"),
        (switchflow["slo"] == "met",
         f"SwitchFlow meets the SLO at {DEFAULT_RATE:g} rps"),
    ]
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
