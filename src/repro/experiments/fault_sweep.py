"""SLO survival under injected faults: SwitchFlow vs every baseline.

For each (policy, fault-rate) cell, a high-priority inference stream
shares a two-V100 server with a background trainer while a scaled copy
of the fault plan breaks things — kernel stalls, transfer failures,
job crashes, device OOM, spurious preemptions. The reported *SLO
survival* is the percentage of foreground requests that finished within
``SLO_FACTOR`` times the stream's fault-free solo latency; injected and
recovered fault counts come straight from the ``faults.*`` metrics.

``rate`` scales the plan's trigger intensities (``0`` disables every
fault — the control column; ``2`` fires twice as often), so one plan
yields a survival-vs-pressure curve per policy. The plan comes from the
active run options (the runner's ``--faults`` flag) or falls back to a
moderate built-in. Every cell runs with whatever `repro.analysis`
enforcement is active, so a sweep under ``--sanitize`` doubles as an
adversarial proof of the paper's invariants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines import MPSPolicy, MultiThreadedTF, SessionTimeSlicing
from repro.core import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    JobHandle,
    SwitchFlowPolicy,
    current_options,
    make_context,
)
from repro.experiments.common import ExperimentResult, fanout_map
from repro.faults import FaultPlan
from repro.hw import v100_server
from repro.models import get_model
from repro.workloads import JobSpec, run_colocation

#: A request survives if it finishes within this multiple of the
#: stream's fault-free solo mean latency.
SLO_FACTOR = 2.0

BG_MODEL = "ResNet50"
FG_MODEL = "MobileNetV2"
WARMUP = 2

_POLICIES = {
    "SwitchFlow": SwitchFlowPolicy,
    "MT-TF": MultiThreadedTF,
    "TimeSlicing": SessionTimeSlicing,
    "MPS": MPSPolicy,
}

FULL_RATES = (0.0, 0.5, 1.0, 2.0)
QUICK_RATES = (0.0, 1.0)


def default_plan() -> FaultPlan:
    """Moderate pressure across every fault kind (rate-1 reference)."""
    return FaultPlan.from_dict({
        "faults": [
            {"kind": "kernel_slowdown", "trigger": {"every_n": 50},
             "factor": 2.0},
            {"kind": "kernel_stall", "trigger": {"probability": 0.002},
             "stall_ms": 5.0},
            {"kind": "transfer_fail", "trigger": {"probability": 0.2}},
            {"kind": "job_crash", "trigger": {"probability": 0.01}},
            {"kind": "spurious_preempt", "trigger": {"every_ms": 1000.0}},
        ],
    })


def _fault_free(plan: FaultPlan) -> FaultPlan:
    """An empty plan carrying the same recovery config.

    Attached explicitly so the reference runs never pick up the
    full-rate ``--faults`` plan through the harness.
    """
    return FaultPlan(faults=[], recovery=plan.recovery)


def _solo_reference_ms(requests: int, seed: int,
                       plan: FaultPlan) -> float:
    """Fault-free solo mean latency of the foreground stream."""
    ctx = make_context(v100_server, 2, seed=seed,
                       fault_plan=_fault_free(plan))
    job = JobHandle(name="solo-fg", model=get_model(FG_MODEL), batch=1,
                    training=False, priority=PRIORITY_HIGH,
                    preferred_device=ctx.machine.gpu(0).name)
    run_colocation(ctx, MultiThreadedTF,
                   [JobSpec(job=job, iterations=requests)])
    samples = job.stats.iteration_times_ms[WARMUP:]
    if not samples:
        raise RuntimeError("solo reference produced no samples")
    return sum(samples) / len(samples)


def _run_cell(cell) -> Dict[str, object]:
    """One (policy, rate) cell. Module-level and plain-data in/out so
    the sweep fans across ``fanout_map`` workers."""
    policy_name, rate, plan_payload, requests, seed, slo_ms = cell
    plan = FaultPlan.from_dict(plan_payload).scaled(rate)
    ctx = make_context(v100_server, 2, seed=seed, fault_plan=plan)
    gpu = ctx.machine.gpu(0).name
    background = JobHandle(
        name="bg-train", model=get_model(BG_MODEL), batch=32,
        training=True, priority=PRIORITY_LOW, preferred_device=gpu)
    foreground = JobHandle(
        name="fg-infer", model=get_model(FG_MODEL), batch=1,
        training=False, priority=PRIORITY_HIGH, preferred_device=gpu)
    result = run_colocation(ctx, _POLICIES[policy_name], [
        JobSpec(job=background, iterations=100_000, background=True),
        JobSpec(job=foreground, iterations=requests,
                start_delay_ms=500.0),
    ])
    samples = foreground.stats.iteration_times_ms[WARMUP:]
    scored = min(len(samples), requests - WARMUP)
    survived = sum(1 for latency in samples[:scored]
                   if latency <= slo_ms)
    denominator = max(1, requests - WARMUP)
    summary = result.latency_summary("fg-infer", warmup=WARMUP)
    return {
        "policy": policy_name,
        "rate": rate,
        "slo_survival_pct": 100.0 * survived / denominator,
        "fg_p95_ms": summary.p95,
        "faults_injected": ctx.metrics.value("faults.injected_total"),
        "faults_recovered": ctx.metrics.value("faults.recovered_total"),
        "degraded_devices": int(
            ctx.metrics.value("faults.degraded_total")),
        "crashed": ",".join(result.crashed_jobs()) or "-",
    }


def run(requests: int = 30, rates: Sequence[float] = FULL_RATES,
        seed: int = 0,
        plan: Optional[FaultPlan] = None) -> ExperimentResult:
    if plan is None:
        plan = current_options().faults or default_plan()
    slo_ms = SLO_FACTOR * _solo_reference_ms(requests, seed, plan)

    payload = plan.to_dict()
    cells = [(policy, rate, payload, requests, seed, slo_ms)
             for rate in rates for policy in _POLICIES]
    rows: List[Dict[str, object]] = fanout_map(_run_cell, cells)

    result = ExperimentResult(
        name="fault_sweep",
        title=f"Fault sweep: SLO survival vs fault rate "
              f"(SLO = {SLO_FACTOR:g}x solo mean = {slo_ms:.1f} ms, "
              f"seed {seed})")
    for row in rows:
        result.add_row(**row)
    result.notes.append(
        "rate scales every trigger in the plan; rate 0 is the "
        "fault-free control. Recovery: transfer retries with capped "
        "backoff, restart-from-checkpoint, victim re-admission, "
        "degradation to time slicing.")

    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """The sweep's own control: rate 0 injects nothing, rate > 0 does."""
    control = [row for row in result.rows if row["rate"] == 0]
    faulted = [row for row in result.rows if row["rate"] > 0]
    checks = []
    if control:
        checks.append((all(row["faults_injected"] == 0 for row in control),
                       f"all {len(control)} rate-0 cells inject no "
                       f"faults"))
    if faulted:
        injecting = sum(1 for row in faulted if row["faults_injected"] > 0)
        checks.append((injecting == len(faulted),
                       f"every rate>0 cell injects faults ({injecting} of "
                       f"{len(faulted)})"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
