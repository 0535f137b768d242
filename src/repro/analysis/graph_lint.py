"""Static graph linter: structural checks before a graph executes.

Validates the properties the executor and partitioner silently rely on
(PAPER.md §2.1, §3.2): acyclicity, symmetric edge bookkeeping, complete
placement, transfer ops on every cross-device edge, send/recv channel
pairing, and — for SwitchFlow's multi-version executors — that every
replica of a subgraph agrees in topology with the primary. A divergent
replica would make a migrated run resume against a different dependency
structure than the one its completed-node set was recorded under.

All checks report through the shared :class:`~repro.analysis.findings`
model instead of raising, so a single pass surfaces *every* problem.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.analysis.findings import Report
from repro.graph.graph import Graph
from repro.graph.ops import OpKind
from repro.graph.partition import Partition

#: Ops that legitimately terminate a cross-device edge.
_TRANSFER_KINDS = (OpKind.SEND, OpKind.RECV)


def lint_graph(graph: Graph, require_placement: bool = False,
               executable: bool = False,
               report: Optional[Report] = None) -> Report:
    """Structural lint of one graph.

    ``require_placement`` demands a device on every node (a graph headed
    for partitioning); ``executable`` additionally demands that any
    cross-device edge is carried by a send/recv pair — true for the
    per-device subgraphs handed to executors, but *not* for a freshly
    placed full graph, where partitioning inserts the transfer ops.
    """
    report = report if report is not None else Report(
        f"graph lint: {graph.name}")
    _check_edge_bookkeeping(report, graph)
    _check_cycles(report, graph)
    if require_placement or executable:
        _check_placement(report, graph)
    if executable:
        _check_cross_device_edges(report, graph)
    return report


def lint_partition(partition: Partition,
                   report: Optional[Report] = None) -> Report:
    """Lint every per-device subgraph plus the channel wiring."""
    report = report if report is not None else Report(
        f"partition lint: {partition.name}")
    for device, subgraph in partition.subgraphs.items():
        lint_graph(subgraph, executable=True, report=report)
        for node in subgraph:
            if node.device is not None and node.device != device:
                report.error(
                    "misplaced-node",
                    f"{node!r} sits in the {device!r} subgraph but is "
                    f"placed on {node.device!r}",
                    where=subgraph.name)
    _check_channels(report, partition)
    return report


def lint_replicas(primary: Graph, replica: Graph,
                  report: Optional[Report] = None) -> Report:
    """A replica executor's subgraph must match the primary's topology.

    SwitchFlow keeps one executor version per device over *the same*
    subgraph (paper §3.2); a replica with different nodes or edges would
    desynchronize the completed-node bookkeeping a resumed run carries
    across devices.
    """
    report = report if report is not None else Report(
        f"replica lint: {replica.name}")
    primary_nodes = {node.node_id for node in primary}
    replica_nodes = {node.node_id for node in replica}
    missing = primary_nodes - replica_nodes
    extra = replica_nodes - primary_nodes
    if missing:
        report.error(
            "divergent-replica",
            f"replica {replica.name!r} is missing {len(missing)} node(s) "
            f"of primary {primary.name!r}: {sorted(missing)[:10]}",
            where=replica.name)
    if extra:
        report.error(
            "divergent-replica",
            f"replica {replica.name!r} has {len(extra)} node(s) absent "
            f"from primary {primary.name!r}: {sorted(extra)[:10]}",
            where=replica.name)
    primary_edges = _edge_set(primary)
    replica_edges = _edge_set(replica)
    shared = primary_nodes & replica_nodes
    for src, dst in sorted(primary_edges - replica_edges):
        if src in shared and dst in shared:
            report.error(
                "divergent-replica",
                f"replica {replica.name!r} lacks edge "
                f"#{src}->#{dst} of primary {primary.name!r}",
                where=replica.name)
    for src, dst in sorted(replica_edges - primary_edges):
        if src in shared and dst in shared:
            report.error(
                "divergent-replica",
                f"replica {replica.name!r} adds edge #{src}->#{dst} "
                f"not present in primary {primary.name!r}",
                where=replica.name)
    return report


def lint_session(session, report: Optional[Report] = None) -> Report:
    """Lint a built session: partition wiring plus replica agreement."""
    report = report if report is not None else Report(
        f"session lint: {session.job}")
    lint_partition(session.partition, report=report)
    primary = session.compute_subgraph
    for executor in session.versions.values():
        if executor.subgraph is primary:
            continue  # shared object: trivially identical
        lint_replicas(primary, executor.subgraph, report=report)
    return report


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------
def _edge_set(graph: Graph) -> Set[Tuple[int, int]]:
    return {(src, dst)
            for src, successors in graph._successors.items()
            for dst in successors}


def _check_edge_bookkeeping(report: Report, graph: Graph) -> None:
    """Adjacency must be closed over the node set and symmetric."""
    nodes = set(graph._nodes)
    for src, successors in graph._successors.items():
        for dst in successors:
            if dst not in nodes:
                report.error(
                    "dangling-edge",
                    f"edge #{src}->#{dst} points at a node not in the "
                    f"graph", where=graph.name)
            elif src not in graph._predecessors.get(dst, ()):
                report.error(
                    "dangling-edge",
                    f"edge #{src}->#{dst} has no reverse predecessor "
                    f"entry (asymmetric bookkeeping)", where=graph.name)
    for dst, predecessors in graph._predecessors.items():
        for src in predecessors:
            if src not in nodes:
                report.error(
                    "dangling-edge",
                    f"predecessor entry #{src}->#{dst} points at a node "
                    f"not in the graph", where=graph.name)


def _check_cycles(report: Report, graph: Graph) -> None:
    """Kahn's algorithm; whatever cannot be ordered sits on a cycle."""
    in_degree = {nid: 0 for nid in graph._nodes}
    for _src, successors in graph._successors.items():
        for dst in successors:
            if dst in in_degree:
                in_degree[dst] += 1
    ready = [nid for nid, degree in in_degree.items() if degree == 0]
    ordered = 0
    while ready:
        nid = ready.pop()
        ordered += 1
        for successor in graph._successors.get(nid, ()):
            if successor not in in_degree:
                continue
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if ordered != len(graph._nodes):
        cyclic = sorted(nid for nid, degree in in_degree.items()
                        if degree > 0)
        names = [repr(graph._nodes[nid].name) for nid in cyclic[:8]]
        report.error(
            "cycle",
            f"{len(cyclic)} node(s) sit on at least one cycle: "
            f"{', '.join(names)}", where=graph.name,
            node_ids=cyclic[:32])


def _check_placement(report: Report, graph: Graph) -> None:
    for node in graph:
        if node.device is None:
            report.error(
                "unplaced-node",
                f"{node!r} has no device assignment", where=graph.name)


def _check_cross_device_edges(report: Report, graph: Graph) -> None:
    """In an executable graph every device hop is a send/recv pair."""
    for node in graph:
        if node.device is None:
            continue
        for successor in graph.successors(node):
            if successor.device is None or successor.device == node.device:
                continue
            if node.kind in _TRANSFER_KINDS \
                    or successor.kind in _TRANSFER_KINDS:
                continue
            report.error(
                "cross-device-edge",
                f"edge {node.name!r} ({node.device}) -> "
                f"{successor.name!r} ({successor.device}) crosses "
                f"devices without a send/recv pair", where=graph.name)


def _check_channels(report: Report, partition: Partition) -> None:
    """Every channel needs exactly one SEND and at least one RECV."""
    sends: dict = {}
    recvs: dict = {}
    for subgraph in partition.subgraphs.values():
        for node in subgraph:
            key = node.op.attrs.get("channel")
            if key is None:
                continue
            if node.kind is OpKind.SEND:
                sends[key] = sends.get(key, 0) + 1
            elif node.kind is OpKind.RECV:
                recvs[key] = recvs.get(key, 0) + 1
    declared = {channel.key for channel in partition.channels}
    for key in sorted(declared | set(sends) | set(recvs)):
        n_send = sends.get(key, 0)
        n_recv = recvs.get(key, 0)
        if n_send != 1 or n_recv < 1:
            report.error(
                "unpaired-channel",
                f"channel {key!r} has {n_send} send(s) and {n_recv} "
                f"recv(s); expected exactly one send and >=1 recv",
                where=partition.name)
        elif key not in declared:
            report.warning(
                "unpaired-channel",
                f"channel {key!r} is wired but not declared in the "
                f"partition's channel list", where=partition.name)

