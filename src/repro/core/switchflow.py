"""The SwitchFlow scheduling policy (Sections 3.2-3.4).

Implements the paper's two invariants plus its preemption protocol:

1. **GPU exclusivity** — a per-GPU :class:`DeviceGate` ensures no two
   jobs' compute executors run on one GPU simultaneously. This is what
   eliminates interference and OOM: a job sees the full device.
2. **Free everything else** — CPU pipeline stages and executors on
   *other* devices are never gated, so one job's preprocessing overlaps
   another job's GPU compute.

Preemption: when a higher-priority job requests a GPU held by a
lower-priority one, SwitchFlow aborts the victim's in-flight run
(queued nodes revoked, dispatched kernels drain — the only critical-path
cost), reassigns the victim to an alternative executor version on a
different GPU (or the CPU/MKL fallback), and moves it to the temporary
thread pool until preemption completes. The victim's model state follows
asynchronously over PCIe, off the preemptor's critical path; the source
copy is retained until the transfer lands (the Table 1 tradeoff).
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Optional

from repro.core.context import RunContext
from repro.core.gate import DeviceGate
from repro.core.job import JobHandle
from repro.core.policy import ComputeGrant, SchedulingPolicy
from repro.faults.recovery import MigrationFailedError


class SwitchFlowPolicy(SchedulingPolicy):
    """Preemptive, executor-granular GPU sharing."""

    fused_sessions = False
    # The DeviceGate is exactly the paper's §3.2 exclusivity invariant;
    # the sanitizer holds SwitchFlow runs to it.
    exclusive_gpu = True

    def __init__(self, ctx: RunContext,
                 allow_cpu_fallback: bool = True) -> None:
        super().__init__(ctx)
        self.allow_cpu_fallback = allow_cpu_fallback
        self.gates: Dict[str, DeviceGate] = {
            gpu.name: DeviceGate(ctx.engine, gpu.name,
                                 metrics=ctx.metrics,
                                 runlog=ctx.runlog)
            for gpu in ctx.machine.gpus}
        self.preemptions = 0

    # ------------------------------------------------------------------
    # Compute gating
    # ------------------------------------------------------------------
    def acquire_compute(self, job: JobHandle):
        cpu_name = self.ctx.machine.cpu.name
        while True:
            device = job.assigned_device
            if device == cpu_name:
                # Migrated to the MKL fallback: no device gate; stays in
                # the temporary pool so it cannot exhaust the global
                # workers.
                try:
                    yield self.ctx.resources.ensure_state(
                        job.name, cpu_name)
                except MigrationFailedError as exc:
                    self._readmit(job, cpu_name, exc)
                    continue
                return ComputeGrant(cpu_name, self.ctx.temporary_pool)

            gate = self.gates[device]
            victim = gate.holder
            # Split acquire/release protocol: the happy-path release
            # lives in release_compute(), which the session driver
            # guarantees to call for every grant.
            request = gate.request(job)  # noqa: repro-analysis
            if (not request.triggered and victim is not None
                    and victim is not job
                    and victim.priority > job.priority):
                if self._degraded(device):
                    # On a degraded device preemption is suppressed:
                    # jobs fall back to time-slicing through the gate's
                    # FIFO. Auditable — it's a decision NOT to act.
                    self.ctx.runlog.emit_decision(
                        "preempt_suppressed",
                        job=job.name, device=device, victim=victim.name,
                        requester_priority=job.priority,
                        victim_priority=victim.priority,
                        reason="device degraded")
                else:
                    # Launch preemption; the gate hand-off happens at
                    # the victim's release, overlapping abort with our
                    # own prep.
                    self.ctx.engine.process(
                        self._preempt(victim, device, requester=job),
                        name=f"preempt/{victim.name}")
            yield request
            # Materialize (or migrate in) our weights. For a job that
            # was itself migrated here, this is the asynchronous state
            # transfer — which fault plans may fail; after exhausted
            # retries the job is re-admitted where its state still
            # lives.
            try:
                yield self.ctx.resources.ensure_state(job.name, device)
            except MigrationFailedError as exc:
                if gate.holder is job:
                    gate.release(job)
                else:
                    gate.withdraw(job)
                self._readmit(job, device, exc)
                continue
            return ComputeGrant(device, self.pool_for(job))

    def release_compute(self, job: JobHandle, grant: ComputeGrant,
                        outcome: str) -> None:
        if grant.device_name in self.gates:
            gate = self.gates[grant.device_name]
            if gate.holder is job:
                gate.release(job)
            else:
                gate.withdraw(job)
        if (outcome == "completed" and job.in_temporary_pool
                and job.assigned_device != self.ctx.machine.cpu.name):
            # Preemption is over and the job completed a run on its new
            # GPU: back to the global pool (Section 3.3).
            job.in_temporary_pool = False

    # ------------------------------------------------------------------
    # Fault recovery (repro.faults)
    # ------------------------------------------------------------------
    def _degraded(self, device: str) -> bool:
        injector = self.ctx.faults
        return (injector is not None
                and injector.degradation.is_degraded(device))

    def _readmit(self, job: JobHandle, failed_device: str,
                 failure: MigrationFailedError) -> None:
        """Send a stranded victim back to where its state still lives.

        Runs when a preemption-induced migration exhausted its transfer
        retries: the destination copy was abandoned, so the only
        consistent placement is the device holding the surviving state
        copy (the source retained by the Table 1 tradeoff).
        """
        home = self.ctx.resources.state_of(job.name).device
        job.assigned_device = home
        self.ctx.runlog.emit_decision(
            "readmit", job=job.name, chosen=home,
            rejected=[{"device": failed_device,
                       "why": "state transfer failed"}],
            reason=str(failure))
        self.ctx.metrics.counter(
            "sched.readmissions", "victims re-admitted after a failed "
            "migration", job=job.name, device=home).inc()
        # The sanitizer reads this record as a scheduling decision that
        # legitimately returns the victim to a contested device.
        self.ctx.runlog.emit("victim_readmitted", job=job.name,
                             device=home, failed_device=failed_device)
        self.ctx.tracer.instant("scheduler", "victim_readmitted",
                                job=job.name, device=home,
                                failed_device=failed_device)
        injector = self.ctx.faults
        if injector is not None:
            injector.record_recovery(
                "migration", failure.elapsed_ms, job=job.name,
                device=home, failed_device=failed_device)

    def spurious_preempt(self, device_pattern: str = "*") -> List[str]:
        """Inject a preemption with no requester behind it.

        Called by the fault injector's clock faults; aborts the current
        holder of every matching, non-degraded gate exactly as a real
        preemption would. Returns the devices where one was launched.
        """
        launched: List[str] = []
        for name, gate in self.gates.items():
            if not fnmatchcase(name, device_pattern):
                continue
            holder = gate.holder
            if holder is None or self._degraded(name):
                continue
            self.ctx.engine.process(
                self._preempt(holder, name),
                name=f"spurious-preempt/{holder.name}")
            launched.append(name)
        return launched

    # ------------------------------------------------------------------
    # Preemption protocol
    # ------------------------------------------------------------------
    def _preempt(self, victim: JobHandle, device: str,
                 requester: Optional[JobHandle] = None):
        self.preemptions += 1
        victim.stats.preemptions += 1
        target, rejected = self._migration_target(victim, device)
        gate = self.gates[device]
        decision = self.ctx.runlog.emit_decision(
            "spurious_preempt" if requester is None else "preempt",
            job=requester.name if requester is not None else victim.name,
            device=device, chosen=target, rejected=rejected,
            victim=victim.name, victim_priority=victim.priority,
            requester=requester.name if requester is not None else None,
            requester_priority=(requester.priority
                                if requester is not None else None),
            queue_depth=len(gate.waiting_jobs))
        victim.assigned_device = target
        victim.in_temporary_pool = True
        victim.stats.migrations += 1
        metrics = self.ctx.metrics
        metrics.counter("sched.preemptions", "preemption decisions",
                        victim=victim.name, device=device).inc()
        metrics.counter("sched.migrations", "executor migrations",
                        job=victim.name, to_device=target).inc()
        self.ctx.runlog.emit(
            "preempt", victim=victim.name, from_device=device,
            to_device=target, decision=decision,
            in_temporary_pool=victim.in_temporary_pool)
        self.ctx.tracer.instant(
            "scheduler", "preempt", victim=victim.name,
            from_device=device, to_device=target)
        injector = self.ctx.faults
        if injector is not None:
            # Arm any crash-on-preemption faults for this victim.
            injector.on_preemption(victim.name, device)
        decided_at = self.ctx.engine.now
        if victim.session is not None:
            # Abort queued nodes; in-flight kernels drain. This is the
            # only part on the preemptor's critical path.
            yield from victim.session.abort_gpu_stage()
        metrics.histogram(
            "sched.abort_ms",
            "victim abort latency (queued revoke + in-flight drain)",
            victim=victim.name).observe(self.ctx.engine.now - decided_at)
        self.ctx.runlog.emit(
            "abort_complete", victim=victim.name, decision=decision,
            drain_ms=self.ctx.engine.now - decided_at)

    def _migration_target(self, victim: JobHandle, device: str):
        """Pick the victim's destination: best other GPU, else CPU.

        Candidates are scored by the cost of routing the victim's state
        from the contested device — a same-node GPU (one PCIe/NVLink
        hop) always beats one behind the network — then by speed.
        Returns ``(target, rejected)`` where ``rejected`` lists every
        alternative that lost, with the reason — the audit trail for
        the migration half of a preemption decision.
        """
        machine = self.ctx.machine
        needed = victim.session.peak_memory_bytes if victim.session else 0
        try:
            state = self.ctx.resources.state_of(victim.name)
            state_bytes, state_tensors = state.nbytes, state.n_tensors
        except KeyError:
            state_bytes, state_tensors = 0, 1
        candidates = []
        rejected: List[Dict[str, str]] = []
        for gpu in machine.gpus:
            if gpu.name == device:
                continue
            if self._degraded(gpu.name):
                # Graceful degradation: never migrate a victim onto a
                # device that keeps faulting.
                rejected.append({"device": gpu.name, "why": "degraded"})
                continue
            gate = self.gates[gpu.name]
            held_by_higher = (gate.holder is not None
                              and gate.holder.priority <= victim.priority)
            free = gpu.memory.free_bytes
            if free < needed:
                rejected.append({
                    "device": gpu.name,
                    "why": f"memory ({free} free < {needed} needed)"})
                continue
            route_cost = machine.route_cost_ms(
                device, gpu.name, state_bytes, state_tensors)
            candidates.append((held_by_higher, route_cost,
                               -gpu.spec.peak_fp32_tflops, gpu.name))
        if candidates:
            # Prefer an unheld gate, then the cheapest state route
            # (same-node before cross-node), then the fastest GPU. On a
            # single machine every route is the same one-hop link, so
            # the ordering (and the audit reasons) reduce to the
            # pre-topology behavior.
            candidates.sort()
            best_cost = candidates[0][1]
            rejected.extend(
                {"device": name,
                 "why": ("held by higher priority" if held
                         else f"route cost {cost:.3f}ms > "
                              f"{best_cost:.3f}ms to "
                              f"{candidates[0][3]}"
                         if cost > best_cost
                         else "slower than chosen")}
                for held, cost, _tflops, name in candidates[1:])
            return candidates[0][3], rejected
        if self.allow_cpu_fallback:
            return self.ctx.machine.cpu.name, rejected
        # Nowhere to go: stay (will queue behind preemptor).
        rejected.append({"device": self.ctx.machine.cpu.name,
                         "why": "cpu fallback disabled"})
        return device, rejected
