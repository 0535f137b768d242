"""Structured run logging: sim-timestamped scheduler decisions as JSONL.

Every consequential runtime decision (job admitted, preemption fired,
migration chosen, state transfer completed, job crashed/finished) is
appended as one JSON-serializable record. The log is the narrative
companion to the metrics registry: metrics say *how much*, the run log
says *what happened, in order*.

Records are plain dicts ``{"t_ms": <sim ms>, "event": <str>, ...}`` so
they stream straight to JSON Lines for offline analysis (``jq``,
pandas) via :meth:`RunLog.to_jsonl` / :meth:`RunLog.write`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Union)

PathLike = Union[str, Path]

#: The run-log event every scheduler decision is recorded as.
DECISION_EVENT = "sched_decision"

#: Decision kinds (the vocabulary the audit CLI and tests key on).
KINDS = ("admit", "preempt", "migrate", "readmit", "spurious_preempt",
         "preempt_suppressed", "gang_place", "request_admit",
         "request_shed", "batch_close")


class RunLog:
    """Append-only, sim-time-stamped event log for one run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True) -> None:
        self._clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        #: Id of the last decision emitted (0 = none yet).
        self.decision_seq = 0

    def emit(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Record one event; non-JSON-native values are repr()'d."""
        if not self.enabled:
            return None
        record: Dict[str, Any] = {"t_ms": round(self._clock(), 6),
                                  "event": event}
        for key, value in fields.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                record[key] = value
            else:
                record[key] = repr(value)
        self.records.append(record)
        return record

    def emit_decision(self, kind: str, *, job: str,
                      device: Optional[str] = None,
                      chosen: Optional[str] = None,
                      considered: Optional[Sequence[Dict[str, Any]]] = None,
                      rejected: Optional[Sequence[Dict[str, Any]]] = None,
                      **inputs: Any) -> Optional[int]:
        """Emit one decision record; returns its ``decision`` id.

        ``considered``/``rejected`` are lists of plain dicts (candidate +
        why it lost); they are JSON-encoded into string fields so the
        record stays a flat JSONL line. Returns None when the log is
        disabled (decision ids then don't advance, keeping replays of
        the same run identical whether or not logging is on).
        """
        if kind not in KINDS:
            raise ValueError(f"unknown decision kind {kind!r}")
        if not self.enabled:
            return None
        self.decision_seq += 1
        fields: Dict[str, Any] = {"decision": self.decision_seq,
                                  "kind": kind, "job": job}
        if device is not None:
            fields["device"] = device
        if chosen is not None:
            fields["chosen"] = chosen
        if considered is not None:
            fields["considered"] = json.dumps(list(considered))
        if rejected is not None:
            fields["rejected"] = json.dumps(list(rejected))
        fields.update(inputs)
        self.emit(DECISION_EVENT, **fields)
        return self.decision_seq

    # ------------------------------------------------------------------
    def filter(self, event: Optional[str] = None,
               **fields: Any) -> List[Dict[str, Any]]:
        """Records matching an event name and/or field values."""
        out = []
        for record in self.records:
            if event is not None and record.get("event") != event:
                continue
            if any(record.get(k) != v for k, v in fields.items()):
                continue
            out.append(record)
        return out

    def count(self, event: str, **fields: Any) -> int:
        return len(self.filter(event, **fields))

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=False)
                         for r in self.records) + ("\n" if self.records
                                                   else "")

    def write(self, path: PathLike, append: bool = False) -> str:
        """Write the log as JSONL; ``append=True`` adds to an existing file.

        Append mode is how incremental sinks (and retried runs) build
        one artifact across several flushes without clobbering earlier
        records.
        """
        text = self.to_jsonl()
        with Path(path).open("a" if append else "w",
                             encoding="utf-8") as fh:
            fh.write(text)
        return text

    @contextmanager
    def sink(self, path: PathLike) -> Iterator["RunLog"]:
        """Context manager guaranteeing a JSONL artifact at ``path``.

        The log is flushed to disk on exit **including exceptional
        exit**, so an aborted or faulted run still leaves everything
        emitted up to the failure point — exactly when the artifact is
        most needed. The file is truncated on entry so a crashed run
        can't be confused with a stale previous one.
        """
        Path(path).write_text("", encoding="utf-8")
        try:
            yield self
        finally:
            self.write(path, append=True)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"<RunLog {len(self.records)} records>"
