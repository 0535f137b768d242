"""Schedule sanitizer: verify the paper's runtime invariants on a trace.

Consumes the :class:`~repro.sim.trace.Tracer` spans and
:class:`~repro.obs.runlog.RunLog` records of a finished run and checks
the invariants SwitchFlow's correctness argument rests on (PAPER.md
sections cited per check):

* **mutual-exclusion** (§3.2) — no two jobs' compute spans overlap on
  one GPU while an exclusive-GPU policy is in force.
* **preemption-safety** (§3.3) — after a victim's abort completes, the
  victim executes nothing further on the contested device until a later
  scheduling decision reassigns it there.
* **migration-critical-path** (§3.3, Table 1) — the victim's weight
  migration overlaps the preemptor's compute instead of serializing
  ahead of it.
* **memory-ceiling** (§2.2) — no device's memory high-water mark exceeds
  the capacity declared in :mod:`repro.hw.specs`; on a cluster the
  aggregate per-node high water must also respect the node's aggregate
  capacity.
* **route-placement** (ROADMAP item 2) — every state transfer departs
  from where the job's state was last recorded, over a route whose
  endpoints (and waypoints, when multi-hop) are devices the machine
  actually has.
* **span-wellformed / span-leak / clock-monotonic** — trace hygiene:
  every span closes, closes after it opens, and the run log's clock
  never goes backwards.

Every check degrades to pure data (span list + record list), so tests
can feed crafted bad traces without running a simulation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Report, Severity
from repro.sim.trace import Span

GPU_LANE_PREFIX = "gpu:"


@dataclass(frozen=True)
class SanitizerConfig:
    """How loudly to report; every invariant check always runs, except
    mutual exclusion on policies that share a GPU by design."""

    #: Enforce per-GPU cross-job mutual exclusion. Policies that share
    #: the device on purpose (multi-threaded TF, MPS) advertise
    #: ``exclusive_gpu = False`` and skip this check.
    exclusive_gpu: bool = True
    #: Findings per check before the remainder is summarized.
    max_reports_per_check: int = 20


def open_span_findings(tracer) -> List[Finding]:
    """Span-leak findings for every still-open span of a tracer.

    This is the Finding-model face of
    :meth:`repro.sim.trace.Tracer.assert_all_closed`: a leaked span
    under-counts a lane's busy time, silently skewing every busy/idle
    figure derived from the trace.
    """
    return [
        Finding(
            check="span-leak", severity=Severity.ERROR,
            message=f"span {open_span.name!r} opened at "
                    f"{open_span.start:.3f}ms was never closed",
            where=open_span.lane, t_start=open_span.start)
        for open_span in tracer.open_spans
    ]


def sanitize_run(ctx, policy=None,
                 config: Optional[SanitizerConfig] = None) -> Report:
    """Run every trace invariant against a finished :class:`RunContext`.

    ``policy`` (when given) decides whether the mutual-exclusion check
    applies: policies sharing GPUs by design set ``exclusive_gpu=False``.
    """
    config = config or SanitizerConfig()
    exclusive = config.exclusive_gpu
    if policy is not None:
        exclusive = bool(getattr(policy, "exclusive_gpu", False))
    machine = ctx.machine
    memory_peaks = {
        gpu.name: (gpu.memory.high_water_mark, gpu.spec.memory_bytes)
        for gpu in machine.gpus}
    # On a multi-node machine, also enforce the aggregate per-node
    # ceiling: the sum of a node's GPU high waters must respect the
    # sum of their capacities. (Keys are node names — "node1" — which
    # never collide with device names like "node1/gpu0".)
    node_peaks: Dict[str, List[int]] = {}
    for gpu in machine.gpus:
        totals = node_peaks.setdefault(
            machine.node_name_of(gpu.name), [0, 0])
        totals[0] += gpu.memory.high_water_mark
        totals[1] += gpu.spec.memory_bytes
    if len(node_peaks) > 1:
        for node, (high, capacity) in node_peaks.items():
            memory_peaks[node] = (high, capacity)
    report = sanitize_trace(
        ctx.tracer.spans, records=ctx.runlog.records,
        memory_peaks=memory_peaks,
        known_devices={device.name for device in machine.devices},
        config=replace(config, exclusive_gpu=exclusive))
    # Spans still open when the engine stopped are in-flight work
    # truncated by the measurement window (e.g. pipeline chunks of the
    # next batch), not leaks — the harness halts the instant the
    # measured processes finish, stranding whatever was mid-flight.
    # Narrate them; strict closure enforcement after an *orderly*
    # shutdown is :meth:`Tracer.assert_all_closed`.
    open_spans = ctx.tracer.open_spans
    if open_spans:
        names = ", ".join(f"{s.lane}/{s.name}" for s in open_spans[:4])
        if len(open_spans) > 4:
            names += ", ..."
        report.info(
            "span-inflight",
            f"{len(open_spans)} span(s) still in flight when the run "
            f"stopped at {ctx.engine.now:.3f}ms: {names}")
    return report


def sanitize_trace(spans: Sequence[Span],
                   records: Sequence[Dict[str, Any]] = (),
                   memory_peaks: Optional[Dict[str, Tuple[int, int]]] = None,
                   config: Optional[SanitizerConfig] = None,
                   known_devices: Optional[set] = None,
                   title: str = "schedule sanitizer") -> Report:
    """Pure-data sanitizer: spans + run-log records in, findings out."""
    config = config or SanitizerConfig()
    report = Report(title)
    _check_wellformed(report, spans, config)
    _check_clock(report, records, config)
    if config.exclusive_gpu:
        _check_mutual_exclusion(report, spans, config)
    _check_preemption_safety(report, spans, records, config)
    _check_migration_off_critical_path(report, spans, records)
    _check_route_placement(report, records, config, known_devices)
    _check_request_spans(report, records, config)
    if memory_peaks:
        _check_memory_ceiling(report, memory_peaks)
    return report


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------
class _Budget:
    """Caps findings per check; summarizes the overflow."""

    def __init__(self, report: Report, check: str, limit: int) -> None:
        self.report = report
        self.check = check
        self.limit = limit
        self.emitted = 0
        self.dropped = 0

    def error(self, message: str, **kwargs: Any) -> None:
        if self.emitted < self.limit:
            self.report.error(self.check, message, **kwargs)
            self.emitted += 1
        else:
            self.dropped += 1

    def flush(self) -> None:
        if self.dropped:
            self.report.info(
                self.check,
                f"{self.dropped} further {self.check} finding(s) suppressed")


def _check_wellformed(report: Report, spans: Sequence[Span],
                      config: SanitizerConfig) -> None:
    budget = _Budget(report, "span-wellformed", config.max_reports_per_check)
    for span in spans:
        if span.end < span.start or span.start != span.start:  # NaN-safe
            budget.error(
                f"span {span.name!r} closes before it opens "
                f"({span.start:.3f} -> {span.end:.3f})",
                where=span.lane, t_start=span.start, t_end=span.end)
    budget.flush()


def _check_clock(report: Report, records: Sequence[Dict[str, Any]],
                 config: SanitizerConfig) -> None:
    budget = _Budget(report, "clock-monotonic", config.max_reports_per_check)
    previous = None
    for index, record in enumerate(records):
        t_ms = record.get("t_ms")
        if t_ms is None:
            continue
        if previous is not None and t_ms < previous:
            budget.error(
                f"run-log record #{index} ({record.get('event')!r}) is "
                f"stamped {t_ms:.3f}ms, before the preceding record's "
                f"{previous:.3f}ms",
                where="runlog", t_start=t_ms, t_end=previous)
        previous = t_ms if previous is None else max(previous, t_ms)
    budget.flush()


def _gpu_spans_by_lane(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    lanes: Dict[str, List[Span]] = {}
    for span in spans:
        if span.lane.startswith(GPU_LANE_PREFIX):
            lanes.setdefault(span.lane, []).append(span)
    for lane_spans in lanes.values():
        lane_spans.sort(key=lambda s: (s.start, s.end))
    return lanes


def _check_mutual_exclusion(report: Report, spans: Sequence[Span],
                            config: SanitizerConfig) -> None:
    """No two jobs' kernels co-resident on one GPU (paper §3.2).

    Sweep each GPU lane in start order with an active-span heap: any
    still-active span from a *different* job when a new span begins is a
    violation of the DeviceGate invariant.
    """
    budget = _Budget(report, "mutual-exclusion",
                     config.max_reports_per_check)
    for lane, lane_spans in _gpu_spans_by_lane(spans).items():
        active: List[Tuple[float, int, Span]] = []   # (end, tiebreak, span)
        for index, span in enumerate(lane_spans):
            context = span.meta.get("context")
            if context is None or span.duration <= 0:
                continue
            while active and active[0][0] <= span.start:
                heapq.heappop(active)
            for _end, _tie, other in active:
                other_context = other.meta.get("context")
                if other_context != context:
                    budget.error(
                        f"jobs {other_context!r} ({other.name}) and "
                        f"{context!r} ({span.name}) overlap on the same "
                        f"GPU",
                        where=lane,
                        t_start=span.start,
                        t_end=min(span.end, other.end),
                        jobs=sorted((str(other_context), str(context))))
            heapq.heappush(active, (span.end, index, span))
    budget.flush()


def _preemption_timeline(records: Sequence[Dict[str, Any]]):
    """Pair each ``preempt`` record with its ``abort_complete``.

    Returns ``(windows, reassignments)`` where each window is
    ``(victim, device, t_preempt, t_abort)`` and ``reassignments`` maps
    ``(victim, device)`` to the times the victim was later sent *back*
    to that device (making post-abort spans there legitimate again).
    """
    windows: List[Tuple[str, str, float, Optional[float]]] = []
    pending: Dict[str, int] = {}
    reassignments: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        event = record.get("event")
        if event == "preempt":
            victim = record.get("victim")
            device = record.get("from_device")
            target = record.get("to_device")
            t_ms = record.get("t_ms", 0.0)
            pending[victim] = len(windows)
            windows.append((victim, device, t_ms, None))
            reassignments.setdefault((victim, target), []).append(t_ms)
        elif event == "abort_complete":
            victim = record.get("victim")
            index = pending.pop(victim, None)
            if index is not None:
                name, device, t_preempt, _ = windows[index]
                windows[index] = (name, device, t_preempt,
                                  record.get("t_ms", t_preempt))
        elif event == "victim_readmitted":
            # Fault recovery (repro.faults): a migration exhausted its
            # transfer retries and the policy sent the victim back to
            # the device its state lives on — a legitimate scheduling
            # decision, so later spans there are not violations.
            job = record.get("job")
            device = record.get("device")
            reassignments.setdefault((job, device), []).append(
                record.get("t_ms", 0.0))
    return windows, reassignments


def _check_preemption_safety(report: Report, spans: Sequence[Span],
                             records: Sequence[Dict[str, Any]],
                             config: SanitizerConfig) -> None:
    """A preempted victim runs nothing on the contested GPU (paper §3.3).

    Kernels dispatched before the preemption decision may drain, but no
    victim span may *start* after the abort completes — unless a later
    scheduling decision migrates the victim back to that device.
    """
    budget = _Budget(report, "preemption-safety",
                     config.max_reports_per_check)
    windows, reassignments = _preemption_timeline(records)
    lanes = _gpu_spans_by_lane(spans)
    for victim, device, t_preempt, t_abort in windows:
        lane_spans = lanes.get(GPU_LANE_PREFIX + str(device), ())
        returns = reassignments.get((victim, device), ())
        for span in lane_spans:
            if span.meta.get("context") != victim:
                continue
            if t_abort is not None and span.start > t_abort:
                if any(t_abort < back <= span.start for back in returns):
                    continue  # legitimately migrated back in between
                budget.error(
                    f"victim {victim!r} ran {span.name!r} on {device!r} "
                    f"at {span.start:.3f}ms, after its abort completed "
                    f"at {t_abort:.3f}ms and before any reassignment",
                    where=span.lane, t_start=span.start, t_end=span.end,
                    victim=victim, preempted_at=t_preempt)
            elif t_preempt < span.start < (t_abort
                                           if t_abort is not None
                                           else float("inf")):
                budget.error(
                    f"victim {victim!r} started {span.name!r} on "
                    f"{device!r} at {span.start:.3f}ms, inside the "
                    f"abort window opened at {t_preempt:.3f}ms",
                    where=span.lane, t_start=span.start, t_end=span.end,
                    victim=victim, preempted_at=t_preempt)
    budget.flush()


def _check_migration_off_critical_path(
        report: Report, spans: Sequence[Span],
        records: Sequence[Dict[str, Any]]) -> None:
    """Weight migration must overlap the preemptor's compute (Table 1).

    For each preemption with a state transfer off the contested device,
    the preemptor's first kernel there should begin *before* the
    victim's migration finishes — the transfer rides PCIe concurrently.
    A preemptor that only starts after the transfer lands suggests the
    migration serialized onto its critical path (WARNING: the gap can
    also come from the preemptor's own input pipeline).
    """
    transfers: Dict[str, List[Tuple[float, float, str]]] = {}
    starts: Dict[Tuple[str, str], float] = {}
    for record in records:
        event = record.get("event")
        if event == "state_transfer_start":
            starts[(record.get("job"), record.get("src"))] = \
                record.get("t_ms", 0.0)
        elif event == "state_transfer_done":
            key = (record.get("job"), record.get("src"))
            begun = starts.pop(key, record.get("t_ms", 0.0))
            transfers.setdefault(record.get("job"), []).append(
                (begun, record.get("t_ms", 0.0), record.get("src")))
    if not transfers:
        return
    windows, _ = _preemption_timeline(records)
    lanes = _gpu_spans_by_lane(spans)
    for victim, device, t_preempt, _t_abort in windows:
        migration = next(
            ((begun, done) for begun, done, src in transfers.get(victim, ())
             if src == device and begun >= t_preempt), None)
        if migration is None:
            continue
        _begun, done = migration
        lane_spans = lanes.get(GPU_LANE_PREFIX + str(device), ())
        preemptor_start = next(
            (span.start for span in lane_spans
             if span.start >= t_preempt
             and span.meta.get("context") not in (None, victim)), None)
        if preemptor_start is not None and preemptor_start > done:
            report.warning(
                "migration-critical-path",
                f"preemptor's first kernel on {device!r} started at "
                f"{preemptor_start:.3f}ms, after victim {victim!r}'s "
                f"state transfer completed at {done:.3f}ms — the "
                f"migration may have serialized onto the critical path",
                where=GPU_LANE_PREFIX + str(device),
                t_start=t_preempt, t_end=preemptor_start, victim=victim)


def _check_route_placement(report: Report,
                           records: Sequence[Dict[str, Any]],
                           config: SanitizerConfig,
                           known_devices: Optional[set] = None) -> None:
    """State transfers depart from the recorded placement (ROADMAP 2).

    Tracks each job's location from its completed transfers: a
    ``state_transfer_start`` whose ``src`` is not where the job's state
    was last recorded means a route was used whose endpoints don't
    match the placement. Multi-hop records carry the route string
    (``a->b->c``); its ends must join the transfer endpoints, its hop
    count must match, and — when the device set is known — every
    waypoint must be a device the machine actually has.
    """
    budget = _Budget(report, "route-placement",
                     config.max_reports_per_check)
    location: Dict[str, str] = {}
    for record in records:
        event = record.get("event")
        if event == "state_transfer_done":
            location[record.get("job")] = record.get("dst")
            continue
        if event != "state_transfer_start":
            continue
        job = record.get("job")
        src = record.get("src")
        dst = record.get("dst")
        t_ms = record.get("t_ms", 0.0)
        if known_devices is not None:
            for endpoint in (src, dst):
                if endpoint not in known_devices:
                    budget.error(
                        f"state transfer for {job!r} names unknown "
                        f"device {endpoint!r}",
                        where="runlog", t_start=t_ms, job=job)
        recorded = location.get(job)
        if recorded is not None and src != recorded:
            budget.error(
                f"job {job!r} starts a state transfer from {src!r}, but "
                f"its state was last recorded on {recorded!r}",
                where="runlog", t_start=t_ms, job=job)
        route = record.get("route")
        if route:
            path = str(route).split("->")
            if path[0] != src or path[-1] != dst:
                budget.error(
                    f"route {route!r} does not join the transfer "
                    f"endpoints {src!r} -> {dst!r}",
                    where="runlog", t_start=t_ms, job=job)
            hops = record.get("hops")
            if hops is not None and hops != len(path) - 1:
                budget.error(
                    f"route {route!r} has {len(path) - 1} hop(s) but "
                    f"the record claims {hops}",
                    where="runlog", t_start=t_ms, job=job)
            if known_devices is not None:
                for waypoint in path[1:-1]:
                    if waypoint not in known_devices:
                        budget.error(
                            f"route {route!r} stages through unknown "
                            f"device {waypoint!r}",
                            where="runlog", t_start=t_ms, job=job)
    budget.flush()


def _check_request_spans(report: Report,
                         records: Sequence[Dict[str, Any]],
                         config: SanitizerConfig) -> None:
    """Serving request accounting: admit once, terminate exactly once.

    Keyed on ``(job, req)``: every ``request_arrived`` must be followed
    by exactly one terminal event — ``request_completed`` xor
    ``request_shed``. A double terminal means a request was counted
    twice (inflating goodput or shed rate); a terminal without an
    arrival means the front-end invented a request; an arrival with no
    terminal means a request was silently dropped, which under-counts
    the tail exactly where the SLO lives.
    """
    budget = _Budget(report, "request-span", config.max_reports_per_check)
    arrived: Dict[Tuple[str, Any], float] = {}
    terminal: Dict[Tuple[str, Any], str] = {}
    for record in records:
        event = record.get("event")
        if event not in ("request_arrived", "request_completed",
                         "request_shed"):
            continue
        key = (record.get("job"), record.get("req"))
        t_ms = record.get("t_ms", 0.0)
        if event == "request_arrived":
            if key in arrived:
                budget.error(
                    f"request {key[1]!r} of job {key[0]!r} arrived "
                    f"twice (first at {arrived[key]:.3f}ms)",
                    where="runlog", t_start=t_ms, job=key[0])
            arrived[key] = t_ms
            continue
        verb = "completed" if event == "request_completed" else "shed"
        if key not in arrived:
            budget.error(
                f"request {key[1]!r} of job {key[0]!r} was {verb} "
                f"without ever arriving",
                where="runlog", t_start=t_ms, job=key[0])
        if key in terminal:
            budget.error(
                f"request {key[1]!r} of job {key[0]!r} was {verb} "
                f"after already being {terminal[key]}",
                where="runlog", t_start=t_ms, job=key[0])
        terminal[key] = verb
    for key, t_ms in arrived.items():
        if key not in terminal:
            budget.error(
                f"request {key[1]!r} of job {key[0]!r} arrived at "
                f"{t_ms:.3f}ms but was never completed or shed",
                where="runlog", t_start=t_ms, job=key[0])
    budget.flush()


def _check_memory_ceiling(report: Report,
                          memory_peaks: Dict[str, Tuple[int, int]]) -> None:
    """High-water marks must respect the hw.specs capacity (paper §2.2)."""
    for device, (high_water, capacity) in sorted(memory_peaks.items()):
        if high_water > capacity:
            report.error(
                "memory-ceiling",
                f"device {device!r} peaked at {high_water} bytes, above "
                f"its declared capacity of {capacity} bytes",
                where=device, over_bytes=high_water - capacity)
