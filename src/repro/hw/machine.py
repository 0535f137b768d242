"""Single-host testbeds: one-node :class:`~repro.hw.topology.Cluster`\\ s.

Provides builders for the paper's three testbeds (Section 5.1):

* ``two_gpu_server()``  — dual-Xeon host, GTX 1080 Ti + RTX 2080 Ti
* ``v100_server(n)``    — dual-Xeon host, up to 4 Tesla V100s
* ``jetson_tx2()``      — quad-core ARM + integrated Pascal GPU

Each device is named by its spec, with ``#n`` for repeats (``Tesla
V100``, ``Tesla V100 #1``, …), and every host↔GPU and GPU↔GPU link uses
the builder's link spec (PCIe 3.0 x16, or the TX2's shared DRAM).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.hw.specs import (
    GTX_1080_TI,
    JETSON_TX2_GPU,
    PCIE3_X16,
    RTX_2080_TI,
    TESLA_V100,
    TX2_ARM_A57,
    TX2_SHARED_MEM,
    XEON_DUAL_18C,
    CpuSpec,
    GpuSpec,
    LinkSpec,
)
from repro.hw.topology import Cluster
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


def _single_host(engine: "Engine", cpu_spec: CpuSpec,
                 gpu_specs: Sequence[GpuSpec], tracer: Optional[Tracer],
                 link_spec: LinkSpec = PCIE3_X16) -> Cluster:
    """One node whose devices carry their spec names, fully linked."""
    machine = Cluster(engine, tracer=tracer)
    node = machine.add_node(cpu_spec, pcie=link_spec, cpu_name=cpu_spec.name)
    for spec in gpu_specs:
        same = sum(1 for g in node.gpus if g.spec.name == spec.name)
        node.add_gpu(spec, name=spec.name if same == 0
                     else f"{spec.name} #{same}")
    return machine


def two_gpu_server(engine: "Engine",
                   tracer: Optional[Tracer] = None) -> Cluster:
    """Server 1 of the paper: GTX 1080 Ti + RTX 2080 Ti, dual-Xeon host."""
    return _single_host(engine, XEON_DUAL_18C, (GTX_1080_TI, RTX_2080_TI),
                        tracer)


def v100_server(engine: "Engine", n_gpus: int = 4,
                tracer: Optional[Tracer] = None) -> Cluster:
    """Server 2 of the paper: up to four 32 GB Tesla V100s."""
    if not 1 <= n_gpus <= 4:
        raise ValueError("the V100 server has between 1 and 4 GPUs")
    return _single_host(engine, XEON_DUAL_18C, (TESLA_V100,) * n_gpus,
                        tracer)


def jetson_tx2(engine: "Engine", tracer: Optional[Tracer] = None) -> Cluster:
    """The Jetson TX2 development kit: shared-DRAM embedded board."""
    return _single_host(engine, TX2_ARM_A57, (JETSON_TX2_GPU,), tracer,
                        link_spec=TX2_SHARED_MEM)


def single_gpu_server(engine: "Engine", gpu_spec: GpuSpec,
                      tracer: Optional[Tracer] = None) -> Cluster:
    """A dual-Xeon host with one GPU of the given spec (Fig. 3 setups)."""
    return _single_host(engine, XEON_DUAL_18C, (gpu_spec,), tracer)
