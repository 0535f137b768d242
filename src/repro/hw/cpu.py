"""Host CPU device: a pool of cores executing costed work items.

Thread-pool *workers* (see :mod:`repro.runtime.threadpool`) are simulated
processes; to actually burn CPU time they check a core out of this device
for the duration of each op. With as many workers as cores (the paper's
configuration) the core pool only contends when two pools coexist — the
global pool plus SwitchFlow's temporary pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hw.memory import MemoryPool
from repro.hw.specs import CpuSpec
from repro.sim.events import Timeout
from repro.sim.resources import Semaphore
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

GiB = 1024 ** 3


class CpuDevice:
    """One simulated host CPU (all sockets pooled).

    Two scheduling classes approximate OS scheduling between TF's
    runtime threads and tf.data's bulk decode threads:

    * *runtime* work (executor dispatch, send/recv, compute ops) takes
      any core and is served ahead of queued data work;
    * *data* work (long preprocessing chunks) is additionally capped a
      few cores below the machine, so microsecond-scale runtime tasks
      always find a core instead of queueing behind 80 ms decodes.

    A single job's pipeline (its per-job data pool, `data_workers`
    threads) fits under the cap, so one co-located latency-critical
    decode never waits; two saturating pipelines contend — which is
    the Figure 8-10 CPU fight.
    """

    #: Core-semaphore priorities (lower is served first).
    RUNTIME_PRIORITY = 0
    DATA_PRIORITY = 1

    def __init__(self, engine: "Engine", spec: CpuSpec,
                 tracer: Optional[Tracer] = None,
                 name: Optional[str] = None,
                 host_memory_bytes: int = 256 * GiB) -> None:
        self.engine = engine
        self.spec = spec
        self.name = name or spec.name
        self.tracer = tracer
        self.lane = f"cpu:{self.name}"
        self.cores = Semaphore(engine, spec.cores)
        reserve = 1 if spec.cores <= 4 else 3
        self.data_slots = Semaphore(engine, max(1, spec.cores - reserve))
        self.memory = MemoryPool(f"{self.name}-dram", host_memory_bytes)
        self.ops_completed = 0

    def execute(self, cost_ms: float, label: str = "cpu-op",
                context: str = "-", data: bool = False):
        """Process generator: occupy one core for ``cost_ms``.

        ``data=True`` marks bulk preprocessing work, which yields the
        queue to runtime tasks. Usage from a worker::

            yield from cpu.execute(3.5, label="decode", context=job)
        """
        if cost_ms < 0:
            raise ValueError(f"negative CPU cost: {cost_ms}")
        if data:
            yield self.data_slots.acquire()
        yield self.cores.acquire(
            priority=self.DATA_PRIORITY if data
            else self.RUNTIME_PRIORITY)
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(self.lane, label, context=context)
        try:
            yield Timeout(self.engine, cost_ms)
        finally:
            if span is not None:
                span.close()
            self.cores.release()
            if data:
                self.data_slots.release()
            self.ops_completed += 1
