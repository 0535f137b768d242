"""Computation graph structure: nodes, edges, topological utilities.

Graphs are DAGs of :class:`Node` objects, each wrapping an
:class:`~repro.graph.ops.OpDef` plus a device assignment. The structure
mirrors TF graph-mode: models build a full graph once, a placement pass
assigns devices, and a partition pass splits it into per-device
subgraphs joined by send/recv pairs (see :mod:`repro.graph.partition`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.graph.ops import OpDef

_node_ids = itertools.count(1)


class GraphError(Exception):
    """Structural problem in a computation graph."""


@dataclass
class Node:
    """One operation instance in a graph."""

    op: OpDef
    device: Optional[str] = None          # device name, set by placement
    node_id: int = field(default_factory=lambda: next(_node_ids))

    @property
    def name(self) -> str:
        return self.op.name

    @property
    def kind(self):
        return self.op.kind

    def __hash__(self) -> int:
        return self.node_id

    def __repr__(self) -> str:
        return (f"<Node #{self.node_id} {self.op.name!r} "
                f"{self.op.kind.value} on {self.device!r}>")


class Graph:
    """A directed acyclic graph of operations."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._successors: Dict[int, List[int]] = {}
        self._predecessors: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, op: OpDef, inputs: Iterable[Node] = (),
                 device: Optional[str] = None) -> Node:
        """Create a node for ``op`` wired after ``inputs``."""
        node = Node(op=op, device=device)
        self._nodes[node.node_id] = node
        self._successors[node.node_id] = []
        self._predecessors[node.node_id] = []
        for parent in inputs:
            self.add_edge(parent, node)
        return node

    def add_edge(self, src: Node, dst: Node) -> None:
        if src.node_id not in self._nodes or dst.node_id not in self._nodes:
            raise GraphError("both endpoints must belong to this graph")
        if dst.node_id in self._successors[src.node_id]:
            return
        self._successors[src.node_id].append(dst.node_id)
        self._predecessors[dst.node_id].append(src.node_id)

    def remove_node(self, node: Node) -> None:
        """Detach and delete ``node`` (edges through it are dropped)."""
        if node.node_id not in self._nodes:
            raise GraphError(f"{node!r} is not in graph {self.name!r}")
        for succ in self._successors.pop(node.node_id):
            self._predecessors[succ].remove(node.node_id)
        for pred in self._predecessors.pop(node.node_id):
            self._successors[pred].remove(node.node_id)
        del self._nodes[node.node_id]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __contains__(self, node: Node) -> bool:
        return node.node_id in self._nodes

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def successors(self, node: Node) -> List[Node]:
        return [self._nodes[i] for i in self._successors[node.node_id]]

    def predecessors(self, node: Node) -> List[Node]:
        return [self._nodes[i] for i in self._predecessors[node.node_id]]

    def in_degree(self, node: Node) -> int:
        return len(self._predecessors[node.node_id])

    def out_degree(self, node: Node) -> int:
        return len(self._successors[node.node_id])

    def sources(self) -> List[Node]:
        return [n for n in self if self.in_degree(n) == 0]

    def sinks(self) -> List[Node]:
        return [n for n in self if self.out_degree(n) == 0]

    def find(self, name: str) -> Node:
        for node in self:
            if node.op.name == name:
                return node
        raise KeyError(f"no node named {name!r} in graph {self.name!r}")

    def devices(self) -> Set[str]:
        return {n.device for n in self if n.device is not None}

    # ------------------------------------------------------------------
    # Algorithms
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles."""
        in_deg = {nid: len(preds)
                  for nid, preds in self._predecessors.items()}
        ready = [nid for nid, deg in in_deg.items() if deg == 0]
        order: List[Node] = []
        while ready:
            nid = ready.pop(0)
            order.append(self._nodes[nid])
            for succ in self._successors[nid]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._nodes):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Check DAG-ness and edge symmetry; raises on inconsistency."""
        self.topological_order()
        for nid, succs in self._successors.items():
            for succ in succs:
                if nid not in self._predecessors[succ]:
                    raise GraphError("asymmetric edge bookkeeping")

    def total_flops(self) -> float:
        return sum(n.op.flops for n in self)

    def subgraph(self, nodes: Iterable[Node], name: str = None) -> "Graph":
        """Induced subgraph over ``nodes`` (edges inside the set only).

        Node objects are shared with the parent graph; only the
        connectivity is copied.
        """
        sub = Graph(name or f"{self.name}/sub")
        keep = {n.node_id for n in nodes}
        for nid in keep:
            if nid not in self._nodes:
                raise GraphError("subgraph node not in parent graph")
            node = self._nodes[nid]
            sub._nodes[nid] = node
            sub._successors[nid] = [
                s for s in self._successors[nid] if s in keep]
            sub._predecessors[nid] = [
                p for p in self._predecessors[nid] if p in keep]
        return sub

    def __repr__(self) -> str:
        return f"<Graph {self.name!r} nodes={len(self)}>"
