"""Hardware substrate: simulated GPUs, CPUs, memory, and interconnects.

Replaces the paper's physical testbed (GTX 1080 Ti / RTX 2080 Ti / Tesla
V100 / Jetson TX2) with calibrated resource models. See DESIGN.md §2 for
the substitution rationale.
"""

from repro.hw.cpu import CpuDevice
from repro.hw.gpu import GpuDevice
from repro.hw.kernels import KernelLaunch
from repro.hw.machine import (
    jetson_tx2,
    single_gpu_server,
    two_gpu_server,
    v100_server,
)
from repro.hw.memory import MemoryPool, OutOfMemoryError
from repro.hw.occupancy import (
    KernelResourceDemand,
    blocks_per_sm,
    can_corun,
    device_occupancy,
)
from repro.hw.pcie import Link, TransferStats, transfer_time_ms
from repro.hw.specs import (
    CPU_CATALOG,
    GPU_CATALOG,
    GTX_1080_TI,
    JETSON_TX2_GPU,
    LINK_CATALOG,
    NETWORK_100G,
    NVLINK2,
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
from repro.hw.topology import Cluster, Node, Route, v100_cluster

__all__ = [
    "CPU_CATALOG",
    "Cluster",
    "CpuDevice",
    "CpuSpec",
    "GPU_CATALOG",
    "GTX_1080_TI",
    "GpuDevice",
    "GpuSpec",
    "JETSON_TX2_GPU",
    "KernelLaunch",
    "KernelResourceDemand",
    "LINK_CATALOG",
    "Link",
    "LinkSpec",
    "MemoryPool",
    "NETWORK_100G",
    "NVLINK2",
    "Node",
    "OutOfMemoryError",
    "PCIE3_X16",
    "RTX_2080_TI",
    "Route",
    "TESLA_V100",
    "TX2_ARM_A57",
    "TX2_SHARED_MEM",
    "TransferStats",
    "XEON_DUAL_18C",
    "blocks_per_sm",
    "can_corun",
    "device_occupancy",
    "jetson_tx2",
    "single_gpu_server",
    "transfer_time_ms",
    "two_gpu_server",
    "v100_cluster",
    "v100_server",
]
