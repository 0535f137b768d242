"""Hardware specification catalog.

The four GPUs and two host CPUs match the paper's testbed (Section 5.1):

* server 1: dual 18-core Xeon, GTX 1080 Ti (11 GB) + RTX 2080 Ti (11 GB)
* server 2: dual 18-core Xeon, 4x Tesla V100 (32 GB)
* Jetson TX2: quad-core ARM Cortex-A57 + 256-core Pascal GPU, 8 GB shared

Numbers are public datasheet values. Absolute simulated times depend on
the efficiency factors in the op cost model; the specs fix the *ratios*
between devices, which is what the evaluation shapes depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

GiB = 1024 ** 3
MiB = 1024 ** 2


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU device."""

    name: str
    peak_fp32_tflops: float
    memory_bandwidth_gbps: float     # GB/s
    memory_bytes: int
    sm_count: int
    registers_per_sm: int            # 32-bit registers
    max_threads_per_sm: int
    shared_mem_per_sm_bytes: int
    # Contention coefficient: a kernel co-running with others slows to
    # rate 1 / (1 + contention_beta * occupancy_of_the_others), modeling
    # cache/bandwidth thrash between contexts (Section 2.2, Figure 2).
    contention_beta: float = 0.7
    # Fixed per-kernel launch/driver overhead, in ms.
    kernel_launch_overhead_ms: float = 0.005
    # Extra cost when execution alternates between contexts (L2/TLB
    # refill, scheduler state). This is what makes the Figure 2 co-run
    # throughput collapse to ~half of solo rather than interleave for
    # free.
    context_switch_overhead_ms: float = 0.30

    @property
    def peak_fp32_flops_per_ms(self) -> float:
        """Peak arithmetic throughput per simulated millisecond."""
        return self.peak_fp32_tflops * 1e12 / 1e3

    @property
    def memory_bytes_per_ms(self) -> float:
        return self.memory_bandwidth_gbps * 1e9 / 1e3


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a host CPU."""

    name: str
    cores: int
    per_core_gflops: float
    # Single-core cost (ms) to JPEG-decode + resize + augment ONE
    # ImageNet image. Batches are split across ``data_workers`` parallel
    # chunk ops (tf.data's num_parallel_calls); the effective amortized
    # per-image cost is image_preprocess_ms / data_workers. Calibrated
    # against the paper's Figure 3 GPU-idle ratios.
    image_preprocess_ms: float
    # Parallel preprocessing threads (the paper uses 32 on the servers).
    data_workers: int = 32
    # Single-core per-sentence tokenize/bucket cost for NMT (ms).
    sentence_preprocess_ms: float = 2.0

    @property
    def per_core_flops_per_ms(self) -> float:
        return self.per_core_gflops * 1e9 / 1e3


@dataclass(frozen=True)
class LinkSpec:
    """An interconnect between two devices (or device and host)."""

    name: str
    bandwidth_gib_s: float
    latency_ms: float = 0.01
    # Fixed cost per tensor transferred (driver call + descriptor setup).
    per_tensor_overhead_ms: float = 0.02

    @property
    def bytes_per_ms(self) -> float:
        return self.bandwidth_gib_s * GiB / 1e3


# ---------------------------------------------------------------------------
# Catalog: GPUs
# ---------------------------------------------------------------------------
GTX_1080_TI = GpuSpec(
    name="GTX 1080 Ti",
    peak_fp32_tflops=11.3,
    memory_bandwidth_gbps=484.0,
    memory_bytes=11 * GiB,
    sm_count=28,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    shared_mem_per_sm_bytes=96 * 1024,
)

RTX_2080_TI = GpuSpec(
    name="RTX 2080 Ti",
    peak_fp32_tflops=13.4,
    memory_bandwidth_gbps=616.0,
    memory_bytes=11 * GiB,
    sm_count=68,
    registers_per_sm=65536,
    max_threads_per_sm=1024,
    shared_mem_per_sm_bytes=64 * 1024,
)

TESLA_V100 = GpuSpec(
    name="Tesla V100",
    peak_fp32_tflops=15.7,
    memory_bandwidth_gbps=900.0,
    memory_bytes=32 * GiB,
    sm_count=80,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    shared_mem_per_sm_bytes=96 * 1024,
)

JETSON_TX2_GPU = GpuSpec(
    name="Jetson TX2",
    peak_fp32_tflops=0.67,
    memory_bandwidth_gbps=59.7,
    memory_bytes=8 * GiB,          # shared with the CPU
    sm_count=2,
    registers_per_sm=65536,
    max_threads_per_sm=2048,
    shared_mem_per_sm_bytes=64 * 1024,
)

# ---------------------------------------------------------------------------
# Catalog: CPUs
# ---------------------------------------------------------------------------
XEON_DUAL_18C = CpuSpec(
    name="Xeon 2x18c",
    cores=36,
    per_core_gflops=48.0,
    image_preprocess_ms=80.0,
    data_workers=32,
)

TX2_ARM_A57 = CpuSpec(
    name="TX2 ARM A57",
    cores=4,
    per_core_gflops=8.0,
    image_preprocess_ms=40.0,
    data_workers=4,
    sentence_preprocess_ms=8.0,
)

# ---------------------------------------------------------------------------
# Catalog: links
# ---------------------------------------------------------------------------
# Effective PCIe 3.0 x16 bandwidth (~10.5 GiB/s of the 15.75 GB/s raw) and
# per-tensor descriptor cost, jointly fitted to the paper's Table 1.
PCIE3_X16 = LinkSpec(name="PCIe 3.0 x16", bandwidth_gib_s=10.5,
                     latency_ms=0.02, per_tensor_overhead_ms=0.04)
TX2_SHARED_MEM = LinkSpec(name="TX2 shared DRAM", bandwidth_gib_s=40.0,
                          latency_ms=0.002, per_tensor_overhead_ms=0.001)
# NVLink 2.0, single brick: ~25 GB/s raw per direction; effective GiB/s
# after protocol overhead. Descriptor setup is near-free relative to PCIe
# because transfers bypass the host-driven DMA path.
NVLINK2 = LinkSpec(name="NVLink 2.0", bandwidth_gib_s=22.0,
                   latency_ms=0.005, per_tensor_overhead_ms=0.005)
# 100 GbE RoCE between nodes: raw 12.5 GB/s, effective ~10.8 GiB/s; the
# dominant costs are switch/NIC latency and per-message framing, which
# is why many-small-tensor transfers are punished far harder than on
# NVLink even though headline bandwidth is comparable to PCIe.
NETWORK_100G = LinkSpec(name="100GbE RoCE", bandwidth_gib_s=10.8,
                        latency_ms=0.15, per_tensor_overhead_ms=0.06)

LINK_CATALOG: Dict[str, LinkSpec] = {
    spec.name: spec
    for spec in (PCIE3_X16, TX2_SHARED_MEM, NVLINK2, NETWORK_100G)
}

GPU_CATALOG: Dict[str, GpuSpec] = {
    spec.name: spec
    for spec in (GTX_1080_TI, RTX_2080_TI, TESLA_V100, JETSON_TX2_GPU)
}

CPU_CATALOG: Dict[str, CpuSpec] = {
    spec.name: spec for spec in (XEON_DUAL_18C, TX2_ARM_A57)
}
