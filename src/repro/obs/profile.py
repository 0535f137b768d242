"""Causal critical-path profiler: where did the wall clock go?

End-of-run aggregates (busy fractions, quantiles) say *how much*; this
module says *why the run took as long as it did*. It consumes the three
shared observability surfaces — tracer spans, run-log records, metrics
— plus the executors' dependency structure, and produces:

* a **disjoint partition** of the run's wall clock ``[0, end]`` into
  named categories (preempt, compute, transfer, gate, recovery, idle),
  so the attribution always sums to exactly the end-to-end time;
* **per-job** breakdowns (busy time, preemption overhead suffered,
  gate wait, transfers, recovery, observed iteration time vs. the
  dependency-graph critical-path lower bound from
  :meth:`repro.runtime.executor.Executor.critical_path_ms`);
* **per-device** busy/idle accounting that reconciles, interval for
  interval, with :meth:`repro.sim.trace.Tracer.busy_union`;
* ``profile.*`` metrics exported back into the registry, and the
  profiler's **own overhead** measured in host wall time (the one
  place outside the engine clock this repo legitimately looks at
  :func:`time.perf_counter` — we are measuring ourselves, not the
  simulation).

Category precedence, highest first, for wall-clock seconds covered by
more than one signal: **preempt** (the paper's headline overhead — a
preemption window counts even while victim kernels drain) > **compute**
(any GPU/CPU span) > **transfer** (PCIe) > **gate** (blocked on a
device gate) > **recovery** (fault restart backoff) > **idle**.

CLI (one cell of a runner experiment, as in ``python -m repro.obs.report``)::

    python -m repro.obs.profile preemption --quick --cell 1
    python -m repro.obs.profile serving --quick --cell 1 --json profile.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time  # host wall clock: self-overhead measurement only
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

CATEGORIES = ("preempt", "compute", "transfer", "gate", "recovery", "idle")

#: Precedence index: lower wins when intervals overlap.
_PRIORITY = {name: index for index, name in enumerate(CATEGORIES)}

Interval = Tuple[float, float]


def _merge(intervals: List[Interval]) -> List[Interval]:
    """Sorted union of possibly-overlapping intervals."""
    merged: List[Interval] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _union_ms(intervals: List[Interval]) -> float:
    return sum(hi - lo for lo, hi in _merge(intervals))


@dataclass
class Segment:
    """One piece of the wall-clock partition."""

    start: float
    end: float
    category: str
    #: True when a device (GPU/CPU/link) had an active span here —
    #: the reconciliation hook against tracer busy time.
    device_active: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ProfileResult:
    """The full attribution for one run."""

    end_ms: float
    segments: List[Segment]
    category_ms: Dict[str, float]
    per_job: Dict[str, Dict[str, Any]]
    per_device: Dict[str, Dict[str, float]]
    #: Sum of device_active segment time vs. the tracer's own union
    #: busy time — must agree within 1% (they are the same intervals).
    device_active_ms: float = 0.0
    tracer_busy_ms: float = 0.0
    #: Host wall time the profiler itself spent, in ms.
    overhead_wall_ms: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def attributed_fraction(self) -> float:
        """Fraction of wall time attributed to *non-idle* categories."""
        if self.end_ms <= 0:
            return 1.0
        busy = sum(ms for cat, ms in self.category_ms.items()
                   if cat != "idle")
        return busy / self.end_ms

    @property
    def reconciliation_error(self) -> float:
        """Relative disagreement with tracer busy time (0 = exact)."""
        if self.tracer_busy_ms <= 0:
            return 0.0 if self.device_active_ms <= 0 else 1.0
        return (abs(self.device_active_ms - self.tracer_busy_ms)
                / self.tracer_busy_ms)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "end_ms": self.end_ms,
            "category_ms": self.category_ms,
            "category_fraction": {
                cat: (ms / self.end_ms if self.end_ms > 0 else 0.0)
                for cat, ms in self.category_ms.items()},
            "attributed_fraction": self.attributed_fraction,
            "device_active_ms": self.device_active_ms,
            "tracer_busy_ms": self.tracer_busy_ms,
            "reconciliation_error": self.reconciliation_error,
            "per_job": self.per_job,
            "per_device": self.per_device,
            "overhead_wall_ms": self.overhead_wall_ms,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# Interval extraction from the shared surfaces
# ---------------------------------------------------------------------------
def _preemption_windows(records: Sequence[Dict[str, Any]]
                        ) -> List[Tuple[str, str, float, float]]:
    """Pair ``preempt`` -> ``abort_complete`` records per victim.

    Same pairing the sanitizer's preemption-safety check performs:
    decisions and aborts interleave per victim in time order.
    """
    pending: Dict[str, List[Tuple[float, str]]] = {}
    windows: List[Tuple[str, str, float, float]] = []
    for record in records:
        event = record.get("event")
        if event == "preempt":
            victim = record["victim"]
            pending.setdefault(victim, []).append(
                (record["t_ms"], record.get("from_device", "?")))
        elif event == "abort_complete":
            victim = record["victim"]
            queue = pending.get(victim)
            if queue:
                t_preempt, device = queue.pop(0)
                windows.append((victim, device, t_preempt, record["t_ms"]))
    return windows


def _recovery_windows(records: Sequence[Dict[str, Any]]
                      ) -> List[Tuple[str, float, float]]:
    """Restart backoff windows: ``job_restarting`` -> ``fault_recovered``."""
    pending: Dict[str, List[float]] = {}
    windows: List[Tuple[str, float, float]] = []
    for record in records:
        event = record.get("event")
        if event == "job_restarting":
            pending.setdefault(record["job"], []).append(record["t_ms"])
        elif event == "fault_recovered" and record.get("job") in pending:
            queue = pending[record["job"]]
            if queue:
                windows.append((record["job"], queue.pop(0),
                                record["t_ms"]))
    return windows


def _gate_windows(records: Sequence[Dict[str, Any]]
                  ) -> List[Tuple[str, str, float, float]]:
    """Blocked-on-gate intervals from ``gate_wait`` records."""
    windows = []
    for record in records:
        if record.get("event") != "gate_wait":
            continue
        end = record["t_ms"]
        windows.append((record.get("job", "?"), record.get("device", "?"),
                        end - record["wait_ms"], end))
    return windows


def _job_of_link_span(span) -> Optional[str]:
    """Link spans carry the job in the label: ``HtoD/job``/``state/job``."""
    _, _, tail = span.name.rpartition("/")
    return tail or None


# ---------------------------------------------------------------------------
# The profiler
# ---------------------------------------------------------------------------
def profile_run(ctx, jobs: Optional[Sequence] = None,
                export_metrics: bool = True) -> ProfileResult:
    """Attribute a finished run's wall clock; returns the profile.

    ``jobs`` defaults to ``ctx.jobs`` (populated by the colocation
    harness); it is only needed for the dependency-graph critical-path
    lower bounds — everything else comes from the tracer/runlog.
    """
    t0 = time.perf_counter()
    end = ctx.engine.now
    tracer = ctx.tracer
    records = list(ctx.runlog.records)
    if jobs is None:
        jobs = list(getattr(ctx, "jobs", ()))

    # -- interval sets per category ------------------------------------
    compute_lanes = [lane for lane in tracer.lanes()
                     if lane.startswith(("gpu:", "cpu:"))]
    link_lanes = [lane for lane in tracer.lanes()
                  if lane.startswith("link:")]
    compute_iv: List[Interval] = [
        (span.start, span.end) for span in tracer.spans
        if span.lane in set(compute_lanes) and span.duration > 0]
    transfer_iv: List[Interval] = [
        (span.start, span.end) for span in tracer.spans
        if span.lane in set(link_lanes) and span.duration > 0]
    preempt_windows = _preemption_windows(records)
    preempt_iv = [(lo, hi) for _job, _dev, lo, hi in preempt_windows]
    gate_windows = _gate_windows(records)
    gate_iv = [(lo, hi) for _job, _dev, lo, hi in gate_windows]
    recovery_windows = _recovery_windows(records)
    recovery_iv = [(lo, hi) for _job, lo, hi in recovery_windows]

    by_category = {
        "preempt": _merge(preempt_iv),
        "compute": _merge(compute_iv),
        "transfer": _merge(transfer_iv),
        "gate": _merge(gate_iv),
        "recovery": _merge(recovery_iv),
    }
    device_iv = _merge(compute_iv + transfer_iv)

    # -- boundary sweep: a disjoint partition of [0, end] --------------
    boundaries = {0.0, end}
    for intervals in by_category.values():
        for lo, hi in intervals:
            boundaries.add(min(max(lo, 0.0), end))
            boundaries.add(min(max(hi, 0.0), end))
    cuts = sorted(boundaries)
    segments: List[Segment] = []
    category_ms = {category: 0.0 for category in CATEGORIES}
    cursors = {category: 0 for category in by_category}
    device_cursor = 0

    def _covers(intervals: List[Interval], index: int,
                mid: float) -> Tuple[bool, int]:
        while index < len(intervals) and intervals[index][1] <= mid:
            index += 1
        covered = (index < len(intervals)
                   and intervals[index][0] <= mid < intervals[index][1])
        return covered, index

    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        category = "idle"
        for name in CATEGORIES[:-1]:
            covered, cursors[name] = _covers(
                by_category[name], cursors[name], mid)
            if covered:
                category = name
                break
        active, device_cursor = _covers(device_iv, device_cursor, mid)
        duration = hi - lo
        category_ms[category] += duration
        if segments and segments[-1].category == category \
                and segments[-1].device_active == active \
                and segments[-1].end == lo:
            segments[-1].end = hi
        else:
            segments.append(Segment(lo, hi, category, active))

    device_active_ms = sum(s.duration for s in segments if s.device_active)
    tracer_busy_ms = tracer.busy_union(compute_lanes + link_lanes,
                                       0.0, end)

    # -- per-job breakdown ---------------------------------------------
    started = {r["job"]: r for r in records
               if r.get("event") == "job_started"}
    job_names = list(started) or sorted(
        {r.get("job") for r in records if r.get("job")})
    sessions = {job.name: job.session for job in jobs
                if getattr(job, "session", None) is not None}
    per_job: Dict[str, Dict[str, Any]] = {}
    for name in job_names:
        busy = _union_ms([
            (s.start, s.end) for s in tracer.spans
            if s.duration > 0 and s.meta.get("context") == name])
        transfers = _union_ms([
            (s.start, s.end) for s in tracer.spans
            if s.lane.startswith("link:") and s.duration > 0
            and _job_of_link_span(s) == name])
        suffered = [(lo, hi) for victim, _dev, lo, hi in preempt_windows
                    if victim == name]
        gate_wait = sum(hi - lo for job, _dev, lo, hi in gate_windows
                        if job == name)
        recovery = sum(hi - lo for job, lo, hi in recovery_windows
                       if job == name)
        iteration = ctx.metrics.get("job.iteration_ms")
        iteration_summary = None
        if iteration is not None:
            child = iteration._series.get((("job", name),))
            if child is not None and child.count:
                iteration_summary = child.summary()
        entry: Dict[str, Any] = {
            "busy_ms": busy,
            "transfer_ms": transfers,
            "preemptions_suffered": len(suffered),
            "preempt_overhead_ms": _union_ms(suffered),
            "gate_wait_ms": gate_wait,
            "recovery_ms": recovery,
        }
        if iteration_summary is not None:
            entry["iterations"] = iteration_summary["count"]
            entry["mean_iteration_ms"] = iteration_summary["mean"]
            entry["p95_iteration_ms"] = iteration_summary["p95"]
        session = sessions.get(name)
        if session is not None:
            # Dependency-structure lower bound for one compute run on
            # the job's home device version.
            device = started.get(name, {}).get("device")
            executor = session.versions.get(device) if device else None
            if executor is None and session.versions:
                executor = next(iter(session.versions.values()))
            if executor is not None:
                entry["critical_path_ms"] = executor.critical_path_ms()
        per_job[name] = entry

    # -- per-device breakdown ------------------------------------------
    per_device: Dict[str, Dict[str, float]] = {}
    for lane in compute_lanes + link_lanes:
        busy = tracer.busy_union([lane], 0.0, end)
        per_device[lane] = {
            "busy_ms": busy,
            "busy_fraction": busy / end if end > 0 else 0.0,
        }

    overhead_ms = (time.perf_counter() - t0) * 1000.0
    result = ProfileResult(
        end_ms=end,
        segments=segments,
        category_ms=category_ms,
        per_job=per_job,
        per_device=per_device,
        device_active_ms=device_active_ms,
        tracer_busy_ms=tracer_busy_ms,
        overhead_wall_ms=overhead_ms,
        meta={"preemption_windows": len(preempt_windows),
              "gate_windows": len(gate_windows),
              "recovery_windows": len(recovery_windows),
              "segments": len(segments)},
    )
    if export_metrics:
        _export(ctx.metrics, result)
    return result


def _export(metrics, result: ProfileResult) -> None:
    """Publish the attribution as ``profile.*`` gauges."""
    for category, ms in result.category_ms.items():
        metrics.gauge("profile.category_ms",
                      "wall-clock attribution by category",
                      category=category).set(ms)
    metrics.gauge("profile.attributed_fraction",
                  "fraction of wall time in non-idle categories").set(
        result.attributed_fraction)
    metrics.gauge("profile.reconciliation_error",
                  "relative disagreement with tracer busy time").set(
        result.reconciliation_error)
    metrics.gauge("profile.overhead_wall_ms",
                  "host wall time the profiler itself spent").set(
        result.overhead_wall_ms)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def render_profile(result: ProfileResult) -> str:
    lines: List[str] = []
    end = result.end_ms
    lines.append(f"wall clock: {end:.1f} ms simulated "
                 f"({result.meta.get('segments', 0)} segments)")
    lines.append("")
    lines.append("attribution (disjoint partition, precedence "
                 "preempt>compute>transfer>gate>recovery)")
    for category in CATEGORIES:
        ms = result.category_ms.get(category, 0.0)
        frac = ms / end if end > 0 else 0.0
        bar = "#" * int(round(frac * 40))
        lines.append(f"  {category:<9} {ms:12.1f} ms  {100 * frac:5.1f}%  "
                     f"{bar}")
    lines.append(f"  attributed (non-idle): "
                 f"{100 * result.attributed_fraction:.1f}%")
    lines.append(
        f"  reconciliation: device-active {result.device_active_ms:.1f} ms"
        f" vs tracer busy {result.tracer_busy_ms:.1f} ms "
        f"(error {100 * result.reconciliation_error:.3f}%)")

    if result.per_job:
        lines.append("")
        lines.append("per job")
        for name in sorted(result.per_job):
            entry = result.per_job[name]
            lines.append(f"  {name}:")
            lines.append(
                f"    busy {entry['busy_ms']:.1f} ms  "
                f"transfers {entry['transfer_ms']:.1f} ms  "
                f"gate-wait {entry['gate_wait_ms']:.1f} ms")
            lines.append(
                f"    preempted {entry['preemptions_suffered']}x "
                f"({entry['preempt_overhead_ms']:.1f} ms overhead)  "
                f"recovery {entry['recovery_ms']:.1f} ms")
            if "mean_iteration_ms" in entry:
                observed = entry["mean_iteration_ms"]
                line = (f"    iterations {entry['iterations']}  "
                        f"mean {observed:.1f} ms  "
                        f"p95 {entry['p95_iteration_ms']:.1f} ms")
                if "critical_path_ms" in entry:
                    bound = entry["critical_path_ms"]
                    line += (f"  critical-path bound {bound:.1f} ms"
                             f" ({observed / bound:.2f}x)"
                             if bound > 0 else "")
                lines.append(line)

    if result.per_device:
        lines.append("")
        lines.append("per device lane")
        for lane in sorted(result.per_device):
            entry = result.per_device[lane]
            lines.append(f"  {lane}: busy {entry['busy_ms']:.1f} ms "
                         f"({100 * entry['busy_fraction']:.1f}%)")

    lines.append("")
    lines.append(f"profiler overhead: {result.overhead_wall_ms:.2f} ms "
                 "host wall time")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    from repro.obs.report import CellError, add_cell_arguments, run_cell

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Run one cell of a runner experiment and print its "
                    "critical-path profile.")
    parser.add_argument("experiment", help="experiment name")
    add_cell_arguments(parser)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the profile as JSON")
    args = parser.parse_args(argv)

    try:
        ctx = run_cell(args.experiment, args)
    except CellError as exc:
        print(exc, file=sys.stderr)
        return 2
    if ctx is None:
        return 0
    result = profile_run(ctx)
    print(f"== critical-path profile: {args.experiment} cell {args.cell} "
          f"(seed={args.seed}) ==")
    print(render_profile(result))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"\nprofile written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
