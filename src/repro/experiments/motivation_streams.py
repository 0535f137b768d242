"""Section 2.2 motivation: two conv2d ops on two CUDA streams.

The paper executed two tf.nn.conv2d operations from two streams on one
GPU and found the completion time close to sequential execution —
NVIDIA's occupancy calculator showed 10 of 13 kernels register-file
bound. This module reproduces both halves: the occupancy analysis over
a representative cuDNN-style kernel set, and the two-stream timing.
"""

from __future__ import annotations

from typing import List

from repro.core import make_context
from repro.experiments.common import ExperimentResult
from repro.graph import OpDef, OpKind, gpu_kernel_cost
from repro.hw import (
    KernelLaunch,
    KernelResourceDemand,
    TESLA_V100,
    device_occupancy,
    single_gpu_server,
)

# Thirteen representative cuDNN conv-kernel launch configurations
# (threads/block, regs/thread, shmem/block, blocks) modeled after the
# profiles nvprof reports for tf.nn.conv2d at ImageNet shapes.
CUDNN_KERNEL_SET: List[KernelResourceDemand] = [
    KernelResourceDemand(256, 128, 48 * 1024, 640),
    KernelResourceDemand(256, 122, 32 * 1024, 512),
    KernelResourceDemand(128, 168, 24 * 1024, 896),
    KernelResourceDemand(256, 96, 48 * 1024, 480),
    KernelResourceDemand(512, 72, 64 * 1024, 320),
    KernelResourceDemand(256, 144, 32 * 1024, 768),
    KernelResourceDemand(128, 200, 16 * 1024, 1024),
    KernelResourceDemand(256, 110, 48 * 1024, 560),
    KernelResourceDemand(256, 136, 96 * 1024, 400),
    KernelResourceDemand(512, 64, 48 * 1024, 352),
    KernelResourceDemand(64, 40, 4 * 1024, 48),      # small/elementwise
    KernelResourceDemand(128, 32, 8 * 1024, 64),
    KernelResourceDemand(64, 48, 8 * 1024, 56),
]


def occupancy_analysis() -> ExperimentResult:
    """How many of the 13 kernels can co-run? (paper: 10 cannot)."""
    result = ExperimentResult(
        name="motivation-occupancy",
        title="Occupancy-calculator analysis of 13 conv2d kernels (V100)")
    blocked = 0
    for index, demand in enumerate(CUDNN_KERNEL_SET, start=1):
        occupancy = device_occupancy(demand, TESLA_V100)
        corunnable = occupancy <= 0.5
        if not corunnable:
            blocked += 1
        result.add_row(
            kernel=f"k{index:02d}",
            threads_per_block=demand.threads_per_block,
            regs_per_thread=demand.registers_per_thread,
            blocks=demand.blocks,
            device_occupancy=occupancy,
            can_corun_with_twin="yes" if corunnable else "no",
        )
    result.notes.append(
        f"{blocked} of {len(CUDNN_KERNEL_SET)} kernels cannot co-run "
        "with a copy of themselves (paper: 10 of 13, register-bound).")
    return result


def two_stream_timing(seed: int = 0) -> ExperimentResult:
    """Run one big conv2d from each of two streams; compare to serial."""
    conv = OpDef(
        name="conv2d_224", kind=OpKind.CONV2D,
        flops=2.0 * 112 * 112 * 64 * 128 * 9 * 32,
        input_bytes=32 * 112 * 112 * 64 * 4,
        output_bytes=32 * 112 * 112 * 128 * 4,
        params_bytes=64 * 128 * 9 * 4, attrs={"k": 3})
    cost = gpu_kernel_cost(conv, TESLA_V100)

    def _run_pair(concurrent: bool) -> float:
        ctx = make_context(single_gpu_server, TESLA_V100, seed=seed)
        gpu = ctx.machine.gpu(0)

        def _launches():
            if concurrent:
                first = gpu.launch(KernelLaunch(
                    name="convA", context="ctxA", work_ms=cost.work_ms,
                    occupancy=cost.occupancy, stream=0))
                second = gpu.launch(KernelLaunch(
                    name="convB", context="ctxB", work_ms=cost.work_ms,
                    occupancy=cost.occupancy, stream=1))
                yield ctx.engine.all_of([first, second])
            else:
                yield gpu.launch(KernelLaunch(
                    name="convA", context="ctxA", work_ms=cost.work_ms,
                    occupancy=cost.occupancy, stream=0))
                yield gpu.launch(KernelLaunch(
                    name="convB", context="ctxB", work_ms=cost.work_ms,
                    occupancy=cost.occupancy, stream=1))

        process = ctx.engine.process(_launches())
        ctx.engine.run(until=process)
        return ctx.engine.now

    sequential = _run_pair(concurrent=False)
    two_streams = _run_pair(concurrent=True)
    result = ExperimentResult(
        name="motivation-streams",
        title="Two conv2d ops: two streams vs sequential (V100)")
    result.add_row(configuration="sequential", completion_ms=sequential)
    result.add_row(configuration="two streams", completion_ms=two_streams,
                   speedup=sequential / two_streams)
    result.notes.append(
        "Paper: concurrent launch from two streams offers almost no "
        "benefit — completion close to sequential.")
    return result


def run(seed: int = 0) -> ExperimentResult:
    """Combined motivation study (occupancy + streams)."""
    occupancy = occupancy_analysis()
    streams = two_stream_timing(seed=seed)
    combined = ExperimentResult(
        name="motivation",
        title=occupancy.title + " / " + streams.title)
    combined.rows = occupancy.rows + streams.rows
    combined.notes = occupancy.notes + streams.notes
    return combined


def headline_checks(result: ExperimentResult) -> List[str]:
    """The qualitative assertions the paper makes about Section 2.2."""
    blocked = sum(1 for row in result.rows
                  if row.get("can_corun_with_twin") == "no")
    checks = [(blocked == 10,
               f"{blocked} of {len(CUDNN_KERNEL_SET)} conv kernels cannot "
               f"co-run with a twin (paper: 10 of 13)")]
    completion = {row["configuration"]: row["completion_ms"]
                  for row in result.rows if "configuration" in row}
    if {"sequential", "two streams"} <= set(completion):
        sequential = completion["sequential"]
        concurrent = completion["two streams"]
        checks.append((
            concurrent >= 0.95 * sequential,
            f"two streams {concurrent:.2f} ms >= 0.95x sequential "
            f"{sequential:.2f} ms (paper: almost no benefit)"))
    return [f"{'PASS' if ok else 'FAIL'}: {claim}" for ok, claim in checks]
