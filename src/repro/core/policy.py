"""Scheduling policy interface.

Every GPU-sharing strategy in the repo — SwitchFlow and the three
baselines (multi-threaded TF, session-based time slicing, NVIDIA MPS)
— implements this interface. The workload drivers are policy-agnostic:
they call the hooks around each pipeline/compute stage and the policy
decides who waits, who runs where, and who gets preempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.context import RunContext
from repro.core.job import JobHandle
from repro.runtime.session import Session
from repro.runtime.threadpool import ThreadPool
from repro.sim import instrument

if TYPE_CHECKING:  # pragma: no cover
    pass


@dataclass(frozen=True)
class ComputeGrant:
    """Permission to run a job's compute subgraph right now."""

    device_name: str
    pool: ThreadPool
    #: True when the policy reserved the job's transient memory up front
    #: (the MPS per-process reservation model) so per-run allocation is
    #: skipped.
    preallocated: bool = False


class SchedulingPolicy:
    """Base policy: immediate grants, no gating (subclasses override)."""

    #: True when a session (CPU stage + GPU stage) must execute as one
    #: atomic unit with no cross-iteration prefetch — the semantics of
    #: session-based time slicing. False enables the tf.data-style
    #: producer/consumer pipelining in the drivers.
    fused_sessions = False

    #: True when the policy guarantees no two jobs' compute runs share
    #: one GPU at a time (SwitchFlow's DeviceGate, time slicing's
    #: machine lock). The schedule sanitizer enforces per-GPU cross-job
    #: mutual exclusion only under such policies; sharing-by-design
    #: baselines (multi-threaded TF, MPS) opt out.
    exclusive_gpu = False

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self.jobs: List[JobHandle] = []

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def register_job(self, job: JobHandle) -> None:
        """Admit a job: build its session and pick its initial device."""
        pinned = job.preferred_device is not None
        if job.preferred_device is None:
            job.preferred_device = self.default_device(job)
        job.assigned_device = job.preferred_device
        self.ctx.runlog.emit_decision(
            "admit", job=job.name,
            chosen=job.assigned_device,
            considered=[{"device": gpu.name}
                        for gpu in self.ctx.machine.gpus],
            pinned=pinned, priority=job.priority,
            policy=type(self).__name__)
        job.session = Session(
            machine=self.ctx.machine, model=job.model, batch=job.batch,
            training=job.training, job=job.name,
            rendezvous=self.ctx.rendezvous, resources=self.ctx.resources,
            rng=self.ctx.rng, data_workers=job.data_workers)
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.access("policy.jobs", "write",
                           where=f"policy.register/{job.name}",
                           guard="lock:policy.jobs")
        self.jobs.append(job)

    def default_device(self, job: JobHandle) -> str:
        gpus = self.ctx.machine.gpus
        if not gpus:
            return self.ctx.machine.cpu.name
        # Deterministic spread: by registration order.
        return gpus[len(self.jobs) % len(gpus)].name

    def unregister_job(self, job: JobHandle) -> None:
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.access("policy.jobs", "write",
                           where=f"policy.unregister/{job.name}",
                           guard="lock:policy.jobs")
        if job in self.jobs:
            self.jobs.remove(job)
        if job.session is not None:
            job.session.release()

    # ------------------------------------------------------------------
    # Stage hooks (all are process generators unless noted)
    # ------------------------------------------------------------------
    def pool_for(self, job: JobHandle) -> ThreadPool:
        if job.in_temporary_pool:
            return self.ctx.temporary_pool
        return self.ctx.global_pool

    def acquire_pipeline(self, job: JobHandle):
        """Gate before the CPU input-pipeline stage (default: none)."""
        return
        yield  # pragma: no cover - makes this a generator

    def release_pipeline(self, job: JobHandle) -> None:
        return

    def acquire_compute(self, job: JobHandle):
        """Gate before the compute stage; returns a ComputeGrant."""
        yield self.ctx.resources.ensure_state(job.name, job.assigned_device)
        return ComputeGrant(job.assigned_device, self.pool_for(job))

    def release_compute(self, job: JobHandle, grant: ComputeGrant,
                        outcome: str) -> None:
        """Called after the compute stage ends (outcome: the run status)."""
        return

    def on_job_crashed(self, job: JobHandle, reason: str) -> None:
        """Bookkeeping when a job dies (e.g. simulated OOM)."""
        job.stats.crashed = True
        job.stats.crash_reason = reason
