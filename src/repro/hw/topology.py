"""Hardware topology: nodes of devices joined by typed links.

SwitchFlow keeps one executor version per device and moves a job's
state between devices over the links that join them. This module is
the one model of that hardware, for a single host and for a fleet:

* :class:`Node` — one host (CPU + GPUs). The GPU-to-GPU links may be
  NVLink; every GPU reaches the host over PCIe (or, on the Jetson TX2,
  shared DRAM).
* :class:`Cluster` — nodes joined CPU-to-CPU by a network link. It owns
  the device, link and route lookups every layer above uses
  (``devices``, ``device()``, ``gpus``, ``cpu``, ``link()``,
  :meth:`~Cluster.route`, :meth:`~Cluster.same_node`,
  :meth:`~Cluster.node_of`). A single-host server
  (:mod:`repro.hw.machine`) is a one-node Cluster.
* :class:`Route` — an ordered multi-hop path between two devices with
  per-hop serialization: a cross-node migration traverses src-PCIe →
  network → dst-PCIe, queueing at each hop. A single-hop route
  delegates to the underlying :class:`~repro.hw.pcie.Link` verbatim, so
  on one node a route's spans are the link's own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.hw.cpu import CpuDevice
from repro.hw.gpu import GpuDevice
from repro.hw.pcie import Link, TransferStats, transfer_time_ms
from repro.hw.specs import (
    NETWORK_100G,
    NVLINK2,
    PCIE3_X16,
    TESLA_V100,
    XEON_DUAL_18C,
    CpuSpec,
    GpuSpec,
    LinkSpec,
)
from repro.sim.events import Event
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Route:
    """An ordered path of links from one device to another.

    Hops serialize: the payload fully crosses hop *i* before hop *i+1*
    begins (store-and-forward through the staging host's DRAM), and each
    hop queues behind that link's other traffic. A one-hop route
    delegates to the underlying link directly — same process name, same
    tracer spans — so single-node schedules are unchanged by routing.
    """

    __slots__ = ("engine", "links")

    def __init__(self, engine: "Engine", links: Sequence[Link]) -> None:
        if not links:
            raise ValueError("a route needs at least one link")
        for left, right in zip(links, links[1:]):
            if left.dst != right.src:
                raise ValueError(
                    f"route is not contiguous: hop to {left.dst!r} "
                    f"followed by hop from {right.src!r}")
        self.engine = engine
        self.links = tuple(links)

    @property
    def src(self) -> str:
        return self.links[0].src

    @property
    def dst(self) -> str:
        return self.links[-1].dst

    @property
    def hops(self) -> int:
        return len(self.links)

    @property
    def path(self) -> Tuple[str, ...]:
        """Every device the payload touches, endpoints included."""
        return (self.links[0].src,) + tuple(l.dst for l in self.links)

    def describe(self) -> str:
        return "->".join(self.path)

    def cost_ms(self, nbytes: int, n_tensors: int = 1) -> float:
        """Analytic uncontended traversal time: sum of per-hop costs."""
        return sum(transfer_time_ms(link.spec, nbytes, n_tensors)
                   for link in self.links)

    def transfer(self, nbytes: int, n_tensors: int = 1,
                 label: str = "memcpy") -> Event:
        """Start a transfer along the route; fires with TransferStats."""
        if len(self.links) == 1:
            return self.links[0].transfer(nbytes, n_tensors=n_tensors,
                                          label=label)
        done = self.engine.event()
        self.engine.process(
            self._run(done, int(nbytes), int(n_tensors), label),
            name=f"route:{self.src}=>{self.dst}:{label}")
        return done

    def _run(self, done: Event, nbytes: int, n_tensors: int, label: str):
        started_at: Optional[float] = None
        duration = 0.0
        for link in self.links:
            stats = yield link.transfer(nbytes, n_tensors=n_tensors,
                                        label=label)
            if started_at is None:
                started_at = stats.started_at
            duration += stats.duration_ms
        done.succeed(TransferStats(
            nbytes=nbytes, n_tensors=n_tensors, duration_ms=duration,
            started_at=started_at if started_at is not None
            else self.engine.now,
            finished_at=self.engine.now))


class Node:
    """One host of a cluster: a CPU plus GPUs.

    Devices are addressed ``node<i>/cpu`` and ``node<i>/gpu<j>`` unless
    the builder names them (the single-host testbeds use spec names).
    """

    def __init__(self, cluster: "Cluster", index: int, cpu_spec: CpuSpec,
                 pcie: LinkSpec = PCIE3_X16,
                 gpu_link: Optional[LinkSpec] = None,
                 cpu_name: Optional[str] = None) -> None:
        self.cluster = cluster
        self.index = index
        self.name = f"node{index}"
        self.pcie_spec = pcie
        # GPU-to-GPU links within the node (NVLink when fitted, else the
        # same PCIe fabric as the host link).
        self.gpu_link_spec = gpu_link if gpu_link is not None else pcie
        self.cpu = CpuDevice(cluster.engine, cpu_spec,
                             tracer=cluster.tracer,
                             name=cpu_name if cpu_name is not None
                             else f"{self.name}/cpu")
        self.gpus: List[GpuDevice] = []
        cluster._register(self.cpu, self)

    def add_gpu(self, spec: GpuSpec,
                name: Optional[str] = None) -> GpuDevice:
        """Attach a GPU: host link to the CPU, GPU link to its peers."""
        if name is None:
            name = f"{self.name}/gpu{len(self.gpus)}"
        gpu = GpuDevice(self.cluster.engine, spec,
                        tracer=self.cluster.tracer, name=name)
        self.cluster._add_link_pair(self.cpu.name, gpu.name,
                                    self.pcie_spec)
        for peer in self.gpus:
            self.cluster._add_link_pair(peer.name, gpu.name,
                                        self.gpu_link_spec)
        self.gpus.append(gpu)
        self.cluster._register(gpu, self)
        return gpu


class Cluster:
    """Nodes joined CPU-to-CPU by a network link.

    Every workload driver, policy and experiment runs on a Cluster; a
    single host is a one-node Cluster, where every route is one hop and
    every placement co-locates. The topology-aware layers (migration,
    gang placement) use :meth:`route`, :meth:`same_node` and
    :meth:`node_of`.
    """

    def __init__(self, engine: "Engine", tracer: Optional[Tracer] = None,
                 network: LinkSpec = NETWORK_100G) -> None:
        self.engine = engine
        self.tracer = tracer if tracer is not None else Tracer(engine)
        self.network_spec = network
        self.nodes: List[Node] = []
        self._links: Dict[tuple, Link] = {}
        self._devices: Dict[str, object] = {}
        self._node_by_device: Dict[str, Node] = {}
        self._routes: Dict[tuple, Route] = {}
        # The primary host CPU (node0's), where shared pools live; set
        # when node 0 is added.
        self.cpu: Optional[CpuDevice] = None
        # Fault injector, if one is attached to the owning RunContext.
        # Mirrored here so layers that only hold the hardware (executor,
        # resource manager) reach its hooks without new plumbing.
        self.faults = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, cpu_spec: CpuSpec = XEON_DUAL_18C,
                 pcie: LinkSpec = PCIE3_X16,
                 gpu_link: Optional[LinkSpec] = None,
                 cpu_name: Optional[str] = None) -> Node:
        """Add a host, networked to every existing node's CPU.

        The CPU is named ``cpu_name``, or ``node<i>/cpu`` by default.
        """
        node = Node(self, len(self.nodes), cpu_spec, pcie=pcie,
                    gpu_link=gpu_link, cpu_name=cpu_name)
        for other in self.nodes:
            self._add_link_pair(other.cpu.name, node.cpu.name,
                                self.network_spec)
        if not self.nodes:
            self.cpu = node.cpu
        self.nodes.append(node)
        return node

    def _add_link_pair(self, a: str, b: str, spec: LinkSpec) -> None:
        for src, dst in ((a, b), (b, a)):
            self._links[(src, dst)] = Link(
                self.engine, spec, src, dst, tracer=self.tracer)

    def _register(self, device, node: Node) -> None:
        self._devices[device.name] = device
        self._node_by_device[device.name] = node

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def gpus(self) -> List[GpuDevice]:
        return [gpu for node in self.nodes for gpu in node.gpus]

    @property
    def devices(self):
        return ([node.cpu for node in self.nodes]
                + [gpu for node in self.nodes for gpu in node.gpus])

    def device(self, name: str):
        try:
            return self._devices[name]
        except KeyError:
            raise KeyError(f"no device named {name!r}; have "
                           f"{[d.name for d in self.devices]}") from None

    def gpu(self, index: int = 0) -> GpuDevice:
        return self.gpus[index]

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r} -> {dst!r}") from None

    # ------------------------------------------------------------------
    # Topology surface
    # ------------------------------------------------------------------
    def node_of(self, device_name: str) -> Node:
        try:
            return self._node_by_device[device_name]
        except KeyError:
            raise KeyError(f"no device named {device_name!r}; have "
                           f"{[d.name for d in self.devices]}") from None

    def node_name_of(self, device_name: str) -> str:
        return self.node_of(device_name).name

    def same_node(self, a: str, b: str) -> bool:
        return self.node_of(a) is self.node_of(b)

    def host_cpu(self, device_name: str) -> CpuDevice:
        """The CPU on the same node as ``device_name`` (itself, if a CPU)."""
        return self.node_of(device_name).cpu

    def route(self, src: str, dst: str) -> Route:
        """The canonical path from ``src`` to ``dst`` (cached).

        Same node: the direct link. Cross node: stage through each
        endpoint's host CPU — src-PCIe → network → dst-PCIe — dropping
        the PCIe legs when an endpoint *is* its node's CPU.
        """
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)
        if src_node is dst_node:
            links = [self.link(src, dst)]
        else:
            links = []
            if src != src_node.cpu.name:
                links.append(self.link(src, src_node.cpu.name))
            links.append(self.link(src_node.cpu.name, dst_node.cpu.name))
            if dst != dst_node.cpu.name:
                links.append(self.link(dst_node.cpu.name, dst))
        route = Route(self.engine, links)
        self._routes[key] = route
        return route

    def route_cost_ms(self, src: str, dst: str, nbytes: int,
                      n_tensors: int = 1) -> float:
        return self.route(src, dst).cost_ms(nbytes, n_tensors)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def v100_cluster(engine: "Engine", n_nodes: int = 2,
                 gpus_per_node: int = 2,
                 tracer: Optional[Tracer] = None,
                 network: LinkSpec = NETWORK_100G,
                 gpu_link: Optional[LinkSpec] = NVLINK2) -> Cluster:
    """``n_nodes`` dual-Xeon hosts with ``gpus_per_node`` V100s each.

    The scale-out form of :func:`~repro.hw.machine.v100_server`:
    NVLink between a node's GPUs, PCIe to its host, 100GbE between
    nodes.
    """
    if n_nodes < 1 or gpus_per_node < 1:
        raise ValueError("a cluster needs at least one node and one "
                         "GPU per node")
    cluster = Cluster(engine, tracer=tracer, network=network)
    for _ in range(n_nodes):
        node = cluster.add_node(XEON_DUAL_18C, gpu_link=gpu_link)
        for _ in range(gpus_per_node):
            node.add_gpu(TESLA_V100)
    return cluster
