"""The fault injector: evaluates a :class:`FaultPlan` against a run.

One :class:`FaultInjector` is attached to a
:class:`~repro.core.context.RunContext` (and mirrored on its machine so
layers that only hold the hardware reach it too). The runtime calls
small hooks at its fault *sites*:

* :meth:`kernel_fault` — the executor, before every GPU kernel launch.
* :meth:`transfer_should_fail` — the resource manager, per transfer
  attempt of a state migration.
* :meth:`crash_requested` — the job drivers, at every iteration start
  (the only *safe point*: no gate held, no run in flight, so injected
  crashes never corrupt the invariants the sanitizer checks).
* :meth:`on_preemption` — the policy, when it decides a preemption;
  arms ``on="preempt"`` crashes that fire at the victim's next safe
  point.

Clock-scoped faults (device OOM ballast, spurious preemptions) are
simulation processes the injector schedules itself via :meth:`arm`.

Every decision is deterministic: per-site triggers count matching
sites or draw from the spec's named RNG stream, and site call order is
part of the engine transcript — identical plan + seed reproduces the
identical fault schedule on both engine paths.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.recovery import DegradationTracker

#: Kinds that count toward a device's degradation threshold. Slowdowns
#: are excluded: a slow-but-correct device is not a failing one.
#: Spurious preemptions ARE included — a gate that keeps evicting its
#: holder for no reason can preempt faster than an iteration completes,
#: and degradation (no further preemptions; plain time slicing) is what
#: restores forward progress.
_DEGRADING_KINDS = ("kernel_stall", "transfer_fail", "device_oom",
                    "spurious_preempt")


class FaultInjector:
    """Evaluates the plan's triggers and records every injection."""

    def __init__(self, ctx, plan: FaultPlan) -> None:
        self.ctx = ctx
        self.plan = plan
        self.recovery = plan.recovery
        self.degradation = DegradationTracker(
            ctx, plan.recovery.degrade_after)
        self._policy = None
        # Per-spec site counters (every_n) and one-shot latches (at_ms).
        self._site_counts: Dict[int, int] = {}
        self._fired_once: Set[int] = set()
        # Crashes armed by on_preemption, realized at the next safe point.
        self._pending_crashes: Dict[str, str] = {}
        # Site-match results by (spec index, job, device): every kernel
        # launch asks for each kernel spec, over a handful of sites.
        self._site_cache: Dict[Tuple[int, str, str], bool] = {}
        self._by_kind: Dict[str, List[FaultSpec]] = {}
        for spec in plan.faults:
            self._by_kind.setdefault(spec.kind, []).append(spec)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule the clock-scoped faults.

        One-shot (``at_ms``) specs ride :meth:`Engine.at`; periodic
        (``every_ms``) specs run as simulation processes.
        """
        engine = self.ctx.engine
        for kind, body in (("device_oom", self._oom_once),
                           ("spurious_preempt", self._spurious_once)):
            for spec in self._by_kind.get(kind, ()):
                name = f"faults/{kind}[{spec.index}]"
                if spec.trigger.at_ms is not None:
                    engine.at(
                        max(engine.now, spec.trigger.at_ms),
                        lambda eng, spec=spec, body=body, name=name:
                            eng.process(body(spec), name=name))
                else:
                    engine.process(self._periodic(spec, body),
                                   name=name)

    def bind_policy(self, policy) -> None:
        """Give clock faults that need the policy (spurious preemption)
        something to act through. Safe to call with any policy; specs
        the policy cannot express become no-ops."""
        self._policy = policy

    # ------------------------------------------------------------------
    # Site hooks (called by the runtime)
    # ------------------------------------------------------------------
    def kernel_fault(self, job: str,
                     device: str) -> Optional[Tuple[float, float]]:
        """(extra_stall_ms, work_factor) for this launch, or None."""
        stall = 0.0
        factor = 1.0
        for spec in self._by_kind.get("kernel_stall", ()):
            if self._site_matches(spec, job, device) \
                    and self._site_fires(spec):
                stall += spec.stall_ms
                self._inject(spec, job=job, device=device,
                             stall_ms=spec.stall_ms)
        for spec in self._by_kind.get("kernel_slowdown", ()):
            if self._site_matches(spec, job, device) \
                    and self._site_fires(spec):
                factor *= spec.factor
                self._inject(spec, job=job, device=device,
                             factor=spec.factor)
        if stall == 0.0 and factor == 1.0:
            return None
        return stall, factor

    def transfer_should_fail(self, job: str, src: str, dst: str) -> bool:
        """Whether this state-transfer attempt is injected to fail."""
        failed = False
        for spec in self._by_kind.get("transfer_fail", ()):
            if self._site_matches(spec, job, dst) \
                    and self._site_fires(spec):
                self._inject(spec, job=job, src=src, device=dst)
                failed = True
        return failed

    def crash_requested(self, job: str) -> Optional[str]:
        """A crash reason if this job must die at its safe point."""
        pending = self._pending_crashes.pop(job, None)
        if pending is not None:
            return pending
        for spec in self._by_kind.get("job_crash", ()):
            if spec.on != "iteration":
                continue
            if self._site_matches(spec, job, "*") \
                    and self._site_fires(spec):
                self._inject(spec, job=job, on="iteration")
                return f"fault plan [{spec.index}]: injected crash"
        return None

    def on_preemption(self, victim: str, device: str) -> None:
        """Evaluate ``on="preempt"`` crash specs for this preemption."""
        for spec in self._by_kind.get("job_crash", ()):
            if spec.on != "preempt":
                continue
            if self._site_matches(spec, victim, device) \
                    and self._site_fires(spec):
                self._inject(spec, job=victim, device=device,
                             on="preempt")
                self._pending_crashes[victim] = (
                    f"fault plan [{spec.index}]: crash on preemption "
                    f"from {device}")

    # ------------------------------------------------------------------
    # Recovery accounting (called by the runtime after it fought back)
    # ------------------------------------------------------------------
    def record_recovery(self, kind: str, latency_ms: float,
                        **detail) -> None:
        metrics = self.ctx.metrics
        metrics.counter("faults.recovered_total",
                        "faults the runtime recovered from",
                        kind=kind).inc()
        metrics.histogram("faults.recovery_ms",
                          "latency from fault to recovery",
                          kind=kind).observe(latency_ms)
        self.ctx.runlog.emit("fault_recovered", kind=kind,
                             recovery_ms=latency_ms, **detail)
        self.ctx.tracer.instant("faults", f"recovered:{kind}",
                                recovery_ms=latency_ms, **detail)

    def injected_total(self) -> float:
        return self.ctx.metrics.value("faults.injected_total")

    def recovered_total(self) -> float:
        return self.ctx.metrics.value("faults.recovered_total")

    # ------------------------------------------------------------------
    # Trigger evaluation
    # ------------------------------------------------------------------
    def _site_matches(self, spec: FaultSpec, job: str, device: str) -> bool:
        key = (spec.index, job, device)
        matched = self._site_cache.get(key)
        if matched is None:
            matched = self._site_cache[key] = (
                fnmatchcase(job, spec.job)
                and fnmatchcase(device, spec.device))
        return matched

    def _site_fires(self, spec: FaultSpec) -> bool:
        trigger = spec.trigger
        if trigger.at_ms is not None:
            if spec.index in self._fired_once:
                return False
            if self.ctx.engine.now >= trigger.at_ms:
                self._fired_once.add(spec.index)
                return True
            return False
        if trigger.every_n is not None:
            count = self._site_counts.get(spec.index, 0) + 1
            self._site_counts[spec.index] = count
            return count % trigger.every_n == 0
        # probability — an independent named stream per plan slot, so
        # adding a spec never perturbs the draws of the others.
        stream = self.ctx.rng.stream(spec.stream_name())
        return stream.random() < trigger.probability

    # ------------------------------------------------------------------
    # Clock-scoped fault processes
    # ------------------------------------------------------------------
    def _periodic(self, spec: FaultSpec, body):
        engine = self.ctx.engine
        while True:  # every_ms — runs until the simulation stops
            yield engine.timeout(spec.trigger.every_ms)
            yield from body(spec)

    def _oom_once(self, spec: FaultSpec):
        """Seize a fraction of each matching GPU's free memory."""
        engine = self.ctx.engine
        ballast = []
        for gpu in self.ctx.machine.gpus:
            if not fnmatchcase(gpu.name, spec.device):
                continue
            nbytes = int(spec.fraction * gpu.memory.free_bytes)
            if nbytes <= 0:
                continue
            record = gpu.memory.allocate("faults", "ballast", nbytes)
            ballast.append((gpu, record))
            self._inject(spec, device=gpu.name, nbytes=nbytes,
                         duration_ms=spec.duration_ms)
        if not ballast:
            return
        yield engine.timeout(spec.duration_ms)
        for gpu, record in ballast:
            gpu.memory.free(record)
        self.ctx.runlog.emit("fault_ballast_freed", kind=spec.kind,
                             devices=[gpu.name for gpu, _r in ballast])

    def _spurious_once(self, spec: FaultSpec):
        """Preempt the holder of every matching gate, for no reason."""
        policy = self._policy
        launch = getattr(policy, "spurious_preempt", None)
        if launch is None:
            return
        launched = launch(spec.device)
        for device in launched:
            self._inject(spec, device=device)
        return
        yield  # pragma: no cover - makes this a generator for _clocked

    # ------------------------------------------------------------------
    def _inject(self, spec: FaultSpec, **detail) -> None:
        self.ctx.metrics.counter(
            "faults.injected_total", "faults injected by the plan",
            kind=spec.kind).inc()
        self.ctx.runlog.emit("fault_injected", kind=spec.kind,
                             spec=spec.index, **detail)
        self.ctx.tracer.instant("faults", spec.kind,
                                spec=spec.index, **detail)
        if spec.kind in _DEGRADING_KINDS:
            self.degradation.record_fault(detail.get("device"))
