"""Device placement pass, and the topology-aware gang scheduler.

Mirrors TF session construction: a cost model assigns each graph node a
backend device. Input-pipeline ops pin to the CPU; compute ops go to the
requested GPU (or the CPU when none is available — the MKL fallback that
SwitchFlow's migration path uses).

:class:`GangScheduler` extends placement to the cluster level: a *gang*
(the replicas of one multi-replica job, or a set of jobs that talk to
each other) is packed onto one node when it fits, and spills a member
across the network only when the member's critical-path estimate says
the cross-node transfer is off-path ("It's the Critical Path!",
PAPERS.md). The critical-path number comes from
:meth:`repro.runtime.executor.Executor.critical_path_ms`; it is passed
in as data so the graph layer stays below the runtime layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.graph.graph import Graph, GraphError
from repro.graph.ops import OpKind


def place_graph(graph: Graph, cpu_device: str,
                gpu_device: Optional[str]) -> None:
    """Assign a device name to every node of ``graph`` in place.

    ``gpu_device`` may be None to force an all-CPU placement (used when a
    preempted job is migrated to the host).
    """
    for node in graph:
        node.device = _device_for(node, cpu_device, gpu_device)


def _device_for(node, cpu_device: str, gpu_device: Optional[str]) -> str:
    op = node.op
    if op.is_pipeline_op or op.preferred_device == "cpu":
        return cpu_device
    if op.kind in (OpKind.SEND, OpKind.RECV):
        # Send/recv placement is decided by the partitioner; default CPU.
        return node.device or cpu_device
    if gpu_device is None:
        return cpu_device
    return gpu_device


def validate_placement(graph: Graph) -> None:
    """Every node must have a device after placement."""
    missing = [node for node in graph if node.device is None]
    if missing:
        raise GraphError(
            f"{len(missing)} nodes missing a device after placement, "
            f"first: {missing[0]!r}")


# ---------------------------------------------------------------------------
# Gang placement (cluster level)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GangMember:
    """One schedulable replica of a gang, as plain data.

    ``critical_path_ms`` is the dependency-structure lower bound on one
    iteration of the member's compute subgraph
    (:meth:`~repro.runtime.executor.Executor.critical_path_ms`); the
    spill rule compares the cross-node state transfer against it.
    """

    job: str
    memory_bytes: int          # peak device footprint while running
    state_bytes: int           # persistent bytes that migrate with it
    n_tensors: int = 1
    critical_path_ms: float = 0.0


@dataclass(frozen=True)
class GangPlacement:
    """Where one member landed, and why."""

    job: str
    device: str
    node: str
    spilled: bool              # placed off the gang's home node
    reason: str


class GangScheduler:
    """Packs gangs onto cluster nodes, critical-path aware.

    Works against the cluster's topology surface (``gpus``,
    ``node_name_of``, ``route_cost_ms``); a single host is a one-node
    cluster, so every placement there co-locates.

    Rules, in order, for each member of a gang:

    1. **Co-locate** on the gang's home node (the node with the most
       aggregate free GPU memory) when a GPU there fits the member.
    2. **Spill** to another node's GPU only when the state transfer
       into it is *off-path*: route cost ≤ ``spill_slack`` × the
       member's critical-path estimate, i.e. the network copy hides
       under one iteration of compute.
    3. **Stack** on the home node otherwise — SwitchFlow's gates
       time-share the device, which beats paying an on-path network
       transfer every migration.

    Every placement is emitted as a ``gang_place`` audit decision with
    the losing candidates and their reasons.
    """

    def __init__(self, machine, runlog=None,
                 spill_slack: float = 0.5) -> None:
        self.machine = machine
        self.runlog = runlog
        self.spill_slack = spill_slack
        # Scheduler-local reservations: persistent state stays resident,
        # so later gangs see earlier gangs' footprints.
        self._reserved: Dict[str, int] = {
            gpu.name: 0 for gpu in machine.gpus}

    # ------------------------------------------------------------------
    def _free_bytes(self, gpu) -> int:
        return gpu.memory.free_bytes - self._reserved[gpu.name]

    def _gpus_by_node(self) -> Dict[str, List]:
        nodes: Dict[str, List] = {}
        for gpu in self.machine.gpus:
            nodes.setdefault(
                self.machine.node_name_of(gpu.name), []).append(gpu)
        return nodes

    def _home_node(self, nodes: Dict[str, List]) -> str:
        # Most aggregate free GPU memory; node order breaks ties so the
        # choice is deterministic.
        return max(nodes,
                   key=lambda name: (sum(self._free_bytes(g)
                                         for g in nodes[name]),
                                     name))

    # ------------------------------------------------------------------
    def place_gang(self,
                   members: Sequence[GangMember]) -> List[GangPlacement]:
        """Place one gang; returns a placement per member, in order."""
        if not members:
            return []
        nodes = self._gpus_by_node()
        if not nodes:
            raise ValueError("cannot place a gang on a machine with "
                             "no GPUs")
        home = self._home_node(nodes)
        home_cpu = self.machine.node_of(nodes[home][0].name).cpu
        placements: List[GangPlacement] = []
        for member in members:
            placement = self._place_member(member, home, home_cpu, nodes)
            self._reserved[placement.device] += member.state_bytes
            placements.append(placement)
        return placements

    def place(self, gangs: Sequence[Sequence[GangMember]]
              ) -> Dict[str, GangPlacement]:
        """Place several gangs; returns placements keyed by job name."""
        out: Dict[str, GangPlacement] = {}
        for gang in gangs:
            for placement in self.place_gang(gang):
                out[placement.job] = placement
        return out

    # ------------------------------------------------------------------
    def _place_member(self, member: GangMember, home: str, home_cpu,
                      nodes: Dict[str, List]) -> GangPlacement:
        rejected: List[Dict[str, str]] = []
        # 1. Co-locate: fittest = the home-node GPU with the most room.
        fits_home = [g for g in nodes[home]
                     if self._free_bytes(g) >= member.memory_bytes]
        if fits_home:
            chosen = max(fits_home,
                         key=lambda g: (self._free_bytes(g), g.name))
            rejected.extend(
                {"device": g.name, "why": "less free memory than chosen"}
                for g in fits_home if g is not chosen)
            return self._decide(member, chosen.name, home, False,
                                "co-located on home node", rejected)
        for gpu in nodes[home]:
            rejected.append({
                "device": gpu.name,
                "why": f"memory ({self._free_bytes(gpu)} free < "
                       f"{member.memory_bytes} needed)"})
        # 2. Spill: cheapest off-node GPU that fits, if the transfer
        #    into it hides under one iteration of compute.
        remote = [
            (self.machine.route_cost_ms(home_cpu.name, g.name,
                                        member.state_bytes,
                                        member.n_tensors),
             -self._free_bytes(g), g.name, node_name, g)
            for node_name, gpus in nodes.items() if node_name != home
            for g in gpus if self._free_bytes(g) >= member.memory_bytes]
        if remote:
            remote.sort()
            cost, _, name, node_name, _gpu = remote[0]
            budget = self.spill_slack * member.critical_path_ms
            if cost <= budget:
                rejected.extend(
                    {"device": other_name,
                     "why": f"route cost {other_cost:.3f}ms > "
                            f"{cost:.3f}ms to {name}"}
                    for other_cost, _f, other_name, _n, _g in remote[1:])
                return self._decide(
                    member, name, node_name, True,
                    f"off-path spill (route {cost:.3f}ms <= "
                    f"{self.spill_slack:.2f}x critical path "
                    f"{member.critical_path_ms:.3f}ms)", rejected)
            rejected.extend(
                {"device": other_name,
                 "why": f"route cost {other_cost:.3f}ms on the critical "
                        f"path (> {budget:.3f}ms budget)"}
                for other_cost, _f, other_name, _n, _g in remote)
        # 3. Stack: time-share the roomiest home GPU through the gate.
        chosen = max(nodes[home],
                     key=lambda g: (self._free_bytes(g), g.name))
        return self._decide(
            member, chosen.name, home, False,
            "stacked on home node (cross-node transfer on the critical "
            "path)" if remote else
            "stacked on home node (no device fits)", rejected)

    def _decide(self, member: GangMember, device: str, node: str,
                spilled: bool, reason: str,
                rejected: List[Dict[str, str]]) -> GangPlacement:
        if self.runlog is not None:
            self.runlog.emit_decision(
                "gang_place", job=member.job,
                chosen=device, rejected=rejected, node=node,
                spilled=spilled, reason=reason,
                critical_path_ms=member.critical_path_ms,
                state_bytes=member.state_bytes)
        return GangPlacement(job=member.job, device=device, node=node,
                             spilled=spilled, reason=reason)
