"""Cluster scale-out sweep: jobs x nodes under SwitchFlow (ROADMAP 2).

Each cell runs a fleet of background trainers (one per GPU, gang-placed
by :class:`~repro.graph.placement.GangScheduler`) plus a co-located pair
of high-priority inference streams on a ``v100_cluster`` of ``n`` nodes,
with the existing fault plan applied at rate 1. Reported per cell:

* aggregate throughput across every job (items/s), showing scale-out;
* migration latency split **by route class** — same-node transfers ride
  one NVLink/PCIe hop, cross-node ones pay src-PCIe → network → dst-PCIe
  (the Table 1 measurement, now with a topology axis);
* SLO survival of the foreground streams against the fault-free solo
  reference, exactly as the fault sweep scores it.

The 2-node quick cell doubles as the CI smoke job: it must show at
least one cross-node migration whose latency exceeds every same-node
one, or the topology model is not doing its job.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    JobHandle,
    SwitchFlowPolicy,
    current_options,
    make_context,
)
from repro.experiments.common import (ExperimentResult, fanout_map,
                                      solo_mean_ms)
from repro.faults import FaultPlan
from repro.graph.partition import partition_graph
from repro.graph.placement import GangMember, GangScheduler, place_graph
from repro.hw.topology import v100_cluster
from repro.models import get_model
from repro.sim.arith import left_sum
from repro.workloads import JobSpec, run_colocation

#: Same survival rule as the fault sweep: a request lives if it lands
#: within this multiple of the fault-free solo mean latency.
SLO_FACTOR = 2.0

BG_MODEL = "ResNet50"
FG_MODEL = "MobileNetV2"
WARMUP = 2

FULL_NODES: Tuple[int, ...] = (1, 2, 4)
QUICK_NODES: Tuple[int, ...] = (2,)
GPUS_PER_NODE = 2


def default_plan() -> FaultPlan:
    """Moderate pressure, as the fault sweep applies (transfer failures
    included — they exercise the cross-node retry/backoff path)."""
    from repro.experiments import fault_sweep

    return fault_sweep.default_plan()


def _critical_path_ms(ctx, model, batch: int, training: bool) -> float:
    """Per-iteration critical-path estimate for the spill rule.

    Builds the compute subgraph and a throwaway executor version on a
    representative GPU — pure construction, no simulated time passes —
    and asks :meth:`Executor.critical_path_ms`.
    """
    from repro.runtime.executor import Executor
    from repro.runtime.rendezvous import Rendezvous
    from repro.runtime.session import ACCELERATOR_TAG

    graph = model.build_graph(batch, training, include_pipeline=False,
                              name=f"cp-probe/{model.name}")
    place_graph(graph, ctx.machine.cpu.name, ACCELERATOR_TAG)
    subgraph = partition_graph(graph).subgraph(ACCELERATOR_TAG)
    probe = Executor(name=f"cp-probe/{model.name}", job="cp-probe",
                     subgraph=subgraph, device=ctx.machine.gpu(0),
                     machine=ctx.machine,
                     rendezvous=Rendezvous(ctx.engine))
    return probe.critical_path_ms()


def _member(ctx, job: JobHandle, critical_path_ms: float) -> GangMember:
    model = job.model
    if job.training:
        memory = model.training_memory_bytes(job.batch)
        state = model.stateful_bytes
    else:
        memory = model.inference_memory_bytes(job.batch)
        state = model.weight_bytes
    return GangMember(job=job.name, memory_bytes=memory,
                      state_bytes=state,
                      n_tensors=model.state_tensor_count,
                      critical_path_ms=critical_path_ms)


def _route_class_latencies(ctx) -> Dict[str, List[float]]:
    """Completed state-transfer latencies, split same-node/cross-node."""
    classes: Dict[str, List[float]] = {"same-node": [], "cross-node": []}
    for record in ctx.runlog.records:
        if record.get("event") != "state_transfer_done":
            continue
        key = ("same-node"
               if ctx.machine.same_node(record["src"], record["dst"])
               else "cross-node")
        classes[key].append(record["transfer_ms"])
    return classes


def _mean(values: Sequence[float]) -> Optional[float]:
    return left_sum(values) / len(values) if values else None


def _run_cell(cell) -> Dict[str, object]:
    """One (n_nodes) cell. Module-level and plain-data in/out so the
    sweep fans across ``fanout_map`` workers."""
    n_nodes, gpus_per_node, requests, seed, slo_ms, plan_payload = cell
    plan = FaultPlan.from_dict(plan_payload)
    ctx = make_context(v100_cluster, n_nodes, gpus_per_node, seed=seed,
                       fault_plan=plan)
    machine = ctx.machine

    # One background trainer per GPU; two foreground inference streams
    # forming one tightly coupled gang.
    trainers = [
        JobHandle(name=f"bg{i}", model=get_model(BG_MODEL), batch=32,
                  training=True, priority=PRIORITY_LOW)
        for i in range(len(machine.gpus))]
    streams = [
        JobHandle(name=f"fg{i}", model=get_model(FG_MODEL), batch=1,
                  training=False, priority=PRIORITY_HIGH)
        for i in range(2)]

    # Gang placement: trainers are independent gangs (the home-node
    # rule spreads them); the stream pair is one gang (co-located).
    scheduler = GangScheduler(machine, runlog=ctx.runlog)
    bg_cp = _critical_path_ms(ctx, get_model(BG_MODEL), 32, True)
    fg_cp = _critical_path_ms(ctx, get_model(FG_MODEL), 1, False)
    placements = scheduler.place(
        [[_member(ctx, job, bg_cp)] for job in trainers]
        + [[_member(ctx, job, fg_cp) for job in streams]])
    for job in trainers + streams:
        job.preferred_device = placements[job.name].device

    result = run_colocation(ctx, SwitchFlowPolicy, [
        JobSpec(job=job, iterations=100_000, background=True)
        for job in trainers
    ] + [
        JobSpec(job=job, iterations=requests,
                start_delay_ms=500.0 + 20.0 * index)
        for index, job in enumerate(streams)
    ])

    survived = scored = 0
    for job in streams:
        samples = job.stats.iteration_times_ms[WARMUP:]
        scored += max(1, requests - WARMUP)
        survived += sum(1 for latency in samples[:requests - WARMUP]
                        if latency <= slo_ms)
    aggregate = left_sum(
        job.stats.throughput_items_per_s(warmup=WARMUP)
        for job in trainers + streams
        if len(job.stats.iteration_times_ms) > WARMUP)
    classes = _route_class_latencies(ctx)
    spilled = sum(1 for p in placements.values() if p.spilled)
    fg_p95 = max(result.latency_summary(job.name, warmup=WARMUP).p95
                 for job in streams)
    return {
        "nodes": n_nodes,
        "gpus": len(machine.gpus),
        "jobs": len(trainers) + len(streams),
        "spilled": spilled,
        "agg_items_per_s": aggregate,
        "fg_p95_ms": fg_p95,
        "slo_survival_pct": 100.0 * survived / scored,
        "migr_same_node": len(classes["same-node"]),
        "same_node_ms": _mean(classes["same-node"]),
        "migr_cross_node": len(classes["cross-node"]),
        "cross_node_ms": _mean(classes["cross-node"]),
        "crashed": ",".join(result.crashed_jobs()) or "-",
    }


def run(requests: int = 30, nodes: Sequence[int] = FULL_NODES,
        gpus_per_node: int = GPUS_PER_NODE,
        seed: int = 0,
        plan: Optional[FaultPlan] = None) -> ExperimentResult:
    if plan is None:
        plan = current_options().faults or default_plan()
    solo = make_context(v100_cluster, 1, 1, seed=seed,
                        fault_plan=plan.scaled(0))
    slo_ms = SLO_FACTOR * solo_mean_ms(solo, SwitchFlowPolicy, "solo-fg",
                                       get_model(FG_MODEL), 1, requests,
                                       WARMUP)

    payload = plan.to_dict()
    cells = [(n, gpus_per_node, requests, seed, slo_ms, payload)
             for n in nodes]
    rows: List[Dict[str, object]] = fanout_map(_run_cell, cells)

    result = ExperimentResult(
        name="cluster_scale",
        title=f"Cluster scale-out: jobs x nodes, {gpus_per_node} "
              f"GPU(s)/node (SLO = {SLO_FACTOR:g}x solo mean = "
              f"{slo_ms:.1f} ms, seed {seed})")
    for row in rows:
        result.add_row(**row)
    result.notes.append(
        "same_node_ms rides one NVLink/PCIe hop; cross_node_ms "
        "traverses src-PCIe -> network -> dst-PCIe. Placements come "
        "from the gang scheduler (spilled = members placed off their "
        "gang's home node).")

    return result


def headline_checks(result: ExperimentResult) -> List[str]:
    """Assertable claims the reproduction stands on."""
    checks: List[str] = []
    multi = [row for row in result.rows if int(row["nodes"]) > 1]
    crossed = [row for row in multi if row["migr_cross_node"]]
    if crossed:
        worst_same = max((row["same_node_ms"] or 0.0) for row in crossed)
        best_cross = min(row["cross_node_ms"] for row in crossed)
        verdict = "PASS" if best_cross > worst_same else "FAIL"
        checks.append(
            f"{verdict}: cross-node migrations are slower than "
            f"same-node ones (min cross {best_cross:.2f} ms vs max "
            f"same {worst_same:.2f} ms)")
    elif multi:
        checks.append("WARN: no cross-node migrations occurred; the "
                      "route-class comparison is vacuous")
    return checks
