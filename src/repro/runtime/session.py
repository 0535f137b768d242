"""Session: one job's executable computation graph on a machine.

Like a TF session, it owns the placed/partitioned graph and the
executors that run it. Unlike vanilla TF — and exactly like SwitchFlow —
it eagerly builds **one executor version per device** for the compute
subgraph, so the scheduler can migrate the job between devices at
preemption time (Section 3.2, "multiple versions of each subgraph").

A session run is split in two stages the way the paper's pipeline is:

* **CPU stage** — the input pipeline subgraph (decode/resize/augment),
  always on the host, freely overlappable with anything.
* **GPU stage** — the compute subgraph on whichever device version the
  scheduling policy currently assigns, beginning with the HtoD input
  transfer (the recv node pays the copy to wherever the job lives now).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.graph.partition import Partition, partition_graph
from repro.graph.placement import place_graph, validate_placement
from repro.graph.ops import OpKind
from repro.models.base import ModelSpec
from repro.runtime.executor import Executor, ExecutorRun
from repro.runtime.rendezvous import Rendezvous
from repro.runtime.resource_manager import ResourceManager
from repro.runtime.threadpool import ThreadPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.topology import Cluster

# Virtual placement tag for the compute subgraph; resolved to a physical
# device when an executor version is selected.
ACCELERATOR_TAG = "_accelerator_"

_session_ids = itertools.count(1)


class Session:
    """One model's runnable graph, with per-device executor versions."""

    def __init__(self, machine: "Cluster", model: ModelSpec, batch: int,
                 training: bool, job: str, rendezvous: Rendezvous,
                 resources: ResourceManager, rng=None,
                 include_pipeline: bool = True,
                 data_workers: int = 32) -> None:
        self.machine = machine
        self.model = model
        self.batch = batch
        self.training = training
        self.job = job
        self.rendezvous = rendezvous
        self.resources = resources
        self.engine = machine.engine
        self.session_id = next(_session_ids)
        self.iterations_completed = 0

        graph = model.build_graph(batch, training,
                                  include_pipeline=include_pipeline,
                                  name=f"{job}/graph",
                                  data_workers=data_workers)
        place_graph(graph, machine.cpu.name, ACCELERATOR_TAG)
        validate_placement(graph)
        self.graph = graph
        self.partition: Partition = partition_graph(graph)

        cpu_sub = self.partition.subgraph(machine.cpu.name)
        self.cpu_executor = Executor(
            name=f"{job}/cpu", job=job, subgraph=cpu_sub,
            device=machine.cpu, machine=machine,
            rendezvous=rendezvous, rng=rng)

        compute_sub = self.partition.subgraph(ACCELERATOR_TAG)
        self.compute_subgraph = compute_sub
        # Multi-version executors: one per device on the machine (every
        # GPU plus the MKL/CPU fallback).
        self.versions: Dict[str, Executor] = {
            device.name: Executor(
                name=f"{job}/compute@{device.name}", job=job,
                subgraph=compute_sub, device=device, machine=machine,
                rendezvous=rendezvous, rng=rng)
            for device in machine.devices}

        self.recv_node_ids: Set[int] = {
            node.node_id for node in compute_sub
            if node.kind is OpKind.RECV}
        self.current_gpu_run: Optional[ExecutorRun] = None

        # Persistent footprint: weights (+ optimizer slot when training).
        self.state_bytes = (model.stateful_bytes if training
                            else model.weight_bytes)
        if job not in resources._states:
            resources.register_job(job, self.state_bytes,
                                   model.state_tensor_count)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def transient_bytes(self) -> int:
        """Per-run device memory beyond the persistent variables."""
        if self.training:
            return (self.model.training_memory_bytes(self.batch)
                    - self.model.stateful_bytes)
        return (self.model.inference_memory_bytes(self.batch)
                - self.model.weight_bytes)

    @property
    def peak_memory_bytes(self) -> int:
        return self.state_bytes + self.transient_bytes

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def scope(self, iteration: int) -> str:
        return f"{self.job}/it{iteration}"

    def run_cpu_stage(self, pool: ThreadPool, iteration: int):
        """Process generator: run the input pipeline for ``iteration``."""
        run = self.cpu_executor.start(pool, self.scope(iteration))
        outcome = yield run.done
        return outcome

    def start_gpu_stage(self, pool: ThreadPool, device_name: str,
                        iteration: int,
                        completed: Optional[Set[int]] = None,
                        preallocated: bool = False) -> ExecutorRun:
        """Kick off the compute subgraph on ``device_name``.

        Allocates the transient memory for the run (unless the caller
        reserved it up front, as MPS-style processes do); the caller
        yields ``run.done`` and must call :meth:`finish_gpu_stage`.
        Raises :class:`~repro.hw.memory.OutOfMemoryError` when the
        transient allocation does not fit — the paper's OOM crash.
        """
        executor = self.versions[device_name]
        device = self.machine.device(device_name)
        run = executor.start(pool, self.scope(iteration),
                             completed=completed)
        if not preallocated:
            try:
                run.transient_allocation = device.memory.allocate(
                    self.job, "transient", self.transient_bytes)
            except Exception:
                # Revoke the work we just queued before propagating.
                self.engine.process(executor.abort(run, pool))
                raise
        else:
            run.transient_allocation = None
        run.device_name = device_name
        run.pool = pool
        self.current_gpu_run = run
        return run

    def finish_gpu_stage(self, run: ExecutorRun, iteration: int) -> None:
        """Release per-run memory and scope bookkeeping."""
        allocation = getattr(run, "transient_allocation", None)
        if allocation is not None:
            self.machine.device(run.device_name).memory.free(allocation)
        if run.status == "completed":
            self.rendezvous.drop_scope(self.scope(iteration))
            self.iterations_completed += 1
        if self.current_gpu_run is run:
            self.current_gpu_run = None

    def abort_gpu_stage(self, pool: Optional[ThreadPool] = None):
        """Process generator: abort the in-flight compute run, if any.

        Returns once queued nodes are revoked and in-flight kernels have
        drained — the critical-path portion of preemption latency.
        """
        run = self.current_gpu_run
        if run is None or run.done.triggered:
            return
        executor = self.versions[run.device_name]
        yield from executor.abort(run, pool if pool is not None else run.pool)

    def release(self) -> None:
        """Free persistent state (job finished or crashed)."""
        self.resources.release_job(self.job)
