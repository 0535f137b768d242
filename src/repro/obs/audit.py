"""Scheduler decision audit: structured "why did that happen?" records.

Every consequential scheduling decision — admit, preempt, migrate,
readmit, spurious preempt, suppressed preempt — is emitted into the run
log as one ``sched_decision`` record carrying the inputs the policy
considered, the alternatives it rejected (with reasons), and a
monotonically increasing ``decision`` id that outcome records
(``preempt``, ``abort_complete``) reference back. The record set is the
machine-readable substrate ROADMAP item 5 (policy search) trains
against, and the query CLI answers the operator question directly::

    python -m repro.obs.audit why victim --experiment preemption \\
        --quick --cell 1
    python -m repro.obs.audit why victim --log run.jsonl --at 1200
    python -m repro.obs.audit list --log run.jsonl

The module also hosts the **flight recorder**: a post-mortem snapshot
(open spans, recent records, pending decisions, gate state, recent
time-series windows) captured automatically when a run dies on a
:class:`~repro.analysis.integration.SanitizationError` or a deadlock
abort, and written under the run's ``--out`` directory (``flight/``)
when one is set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.options import current_options
from repro.obs.runlog import DECISION_EVENT, KINDS, RunLog

#: One emitter: :meth:`RunLog.emit_decision`, importable here as a
#: function of the log (``emit_decision(runlog, kind, ...)``).
emit_decision = RunLog.emit_decision


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------
def _parse_embedded(record: Dict[str, Any]) -> Dict[str, Any]:
    """Decode the JSON-encoded considered/rejected fields, if present."""
    out = dict(record)
    for key in ("considered", "rejected"):
        value = out.get(key)
        if isinstance(value, str):
            try:
                out[key] = json.loads(value)
            except json.JSONDecodeError:
                pass
    return out


def decisions(records: Sequence[Dict[str, Any]],
              kind: Optional[str] = None,
              job: Optional[str] = None) -> List[Dict[str, Any]]:
    """All decision records, optionally filtered by kind and job.

    ``job`` matches the deciding job *or* the victim of a preemption —
    "why was X preempted" and "why did X preempt" both hit.
    """
    out = []
    for record in records:
        if record.get("event") != DECISION_EVENT:
            continue
        if kind is not None and record.get("kind") != kind:
            continue
        if job is not None and job not in (record.get("job"),
                                           record.get("victim"),
                                           record.get("requester")):
            continue
        out.append(_parse_embedded(record))
    return out


def why(records: Sequence[Dict[str, Any]], job: str,
        at_ms: Optional[float] = None,
        kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """The decision explaining what happened to ``job``.

    Without ``at_ms``: the job's last decision. With it: the latest
    decision at or before that time (the one in force then).
    """
    matches = decisions(records, kind=kind, job=job)
    if at_ms is not None:
        matches = [m for m in matches if m.get("t_ms", 0.0) <= at_ms]
    return matches[-1] if matches else None


def explain(record: Dict[str, Any]) -> str:
    """Render one decision record as a human-readable paragraph."""
    record = _parse_embedded(record)
    kind = record.get("kind", "?")
    lines = [f"decision #{record.get('decision', '?')} [{kind}] "
             f"at t={record.get('t_ms', 0.0):.3f} ms"]
    skip = {"t_ms", "event", "decision", "kind", "considered", "rejected"}
    for key in sorted(record):
        if key in skip:
            continue
        lines.append(f"  {key}: {record[key]}")
    for key in ("considered", "rejected"):
        entries = record.get(key)
        if not entries:
            continue
        lines.append(f"  {key}:")
        for entry in entries:
            if isinstance(entry, dict):
                body = ", ".join(f"{k}={v}" for k, v in entry.items())
            else:
                body = str(entry)
            lines.append(f"    - {body}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------
def flight_record(ctx, reason: str, policy=None,
                  last_records: int = 80) -> Dict[str, Any]:
    """Snapshot everything needed to debug a dead run, as plain data.

    Captures the tail of the run log, every span still open, decisions
    whose outcome never landed (a ``preempt`` decision with no
    ``abort_complete`` referencing it), per-gate holder/queue state
    when the policy exposes gates, and the most recent time-series
    windows when a sampler is attached.
    """
    records = list(ctx.runlog.records)
    decided = decisions(records)
    completed = {r.get("decision") for r in records
                 if r.get("event") == "abort_complete"
                 and r.get("decision") is not None}
    pending = [d for d in decided
               if d["kind"] in ("preempt", "spurious_preempt")
               and d["decision"] not in completed]
    snapshot: Dict[str, Any] = {
        "reason": reason,
        "t_ms": ctx.engine.now,
        "open_spans": ctx.tracer.open_span_rows(),
        "recent_records": records[-last_records:],
        "pending_decisions": pending,
    }
    gates = getattr(policy, "gates", None)
    if gates:
        snapshot["gates"] = {
            name: {"holder": gate.holder.name if gate.holder else None,
                   "waiting": [j.name for j in gate.waiting_jobs]}
            for name, gate in gates.items()}
    sampler = getattr(ctx, "timeseries", None)
    if sampler is not None:
        snapshot["timeseries_windows"] = sampler.recent_rows()
    tracker = getattr(ctx, "concurrency", None)
    if tracker is not None:
        # Who is parked on what — the first question a deadlock dump
        # gets asked.
        snapshot["concurrency_waits"] = tracker.waiting_rows()
    return snapshot


def dump_flight_record(ctx, reason: str, policy=None,
                       path: Optional[Path] = None) -> Optional[Path]:
    """Write a flight record to disk; returns the path (None = not asked).

    With no explicit ``path``, the dump lands in ``flight/`` under the
    active run options' ``out`` directory (created if needed); no
    directory means no dump — the snapshot is cheap but unsolicited
    files are not.
    """
    if path is None:
        out = current_options().out
        if out is None:
            return None
        slug = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in reason)[:48].strip("-") or "abort"
        path = out / "flight" / f"flight-{slug}-t{ctx.engine.now:.0f}.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = flight_record(ctx, reason, policy=policy)
    path.write_text(json.dumps(payload, indent=2, default=repr),
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    from repro.obs.report import CellError, add_cell_arguments, run_cell

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.audit",
        description="Query the scheduler decision log of a run.")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--log", metavar="PATH",
                       help="run-log JSONL file to query")
        p.add_argument("--experiment", metavar="NAME",
                       help="run a cell of this runner experiment and "
                            "query its log in memory")
        add_cell_arguments(p)
        p.add_argument("--kind", choices=KINDS,
                       help="restrict to one decision kind")

    p_why = sub.add_parser("why", help="explain what happened to a job")
    p_why.add_argument("job", help="job name")
    p_why.add_argument("--at", type=float, metavar="MS",
                       help="the decision in force at this sim time")
    _common(p_why)

    p_list = sub.add_parser("list", help="list decision records")
    p_list.add_argument("--job", help="filter by job (or victim)")
    _common(p_list)

    args = parser.parse_args(argv)
    if bool(args.log) == bool(args.experiment):
        parser.error("exactly one of --log / --experiment is required")
    if args.log:
        with open(args.log, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    else:
        try:
            ctx = run_cell(args.experiment, args, flag="--experiment")
        except CellError as exc:
            print(exc, file=sys.stderr)
            return 2
        if ctx is None:
            return 0
        records = ctx.runlog.records

    if args.command == "why":
        record = why(records, args.job, at_ms=args.at, kind=args.kind)
        if record is None:
            where = f" at t<={args.at}" if args.at is not None else ""
            print(f"no decision found for job {args.job!r}{where}")
            return 1
        print(explain(record))
        return 0

    matches = decisions(records, kind=args.kind, job=args.job)
    if not matches:
        print("no decisions recorded")
        return 1
    for record in matches:
        print(explain(record))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
