"""Timeline tracing: record what ran where, and when.

The tracer collects :class:`Span` records — (lane, name, start, end, meta) —
matching the structure of an nvprof/TF-profiler timeline. The Figure 2 and
Figure 3 reproductions are pure post-processing over these spans, and the
per-device busy/idle accounting used throughout the metrics package is
derived from them.

A run records one span per CPU op and kernel but only a few hundred
distinct metas, so the tracer interns them: spans with equal meta share
one dict, which readers must treat as read-only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, \
    Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


@dataclass(frozen=True, slots=True)
class Span:
    """A closed interval of activity on one timeline lane."""

    lane: str
    name: str
    start: float
    end: float
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        """True if the two spans overlap in time (open-interval test)."""
        return self.start < other.end and other.start < self.end


class OpenSpan:
    """Handle for an in-progress span; call :meth:`close` when done."""

    __slots__ = ("_tracer", "lane", "name", "start", "meta", "_closed")

    def __init__(self, tracer: "Tracer", lane: str, name: str,
                 start: float, meta: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.lane = lane
        self.name = name
        self.start = start
        self.meta = meta
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, end: Optional[float] = None, **extra_meta: Any) -> Span:
        if self._closed:
            raise RuntimeError(f"span {self.name!r} closed twice")
        self._closed = True
        tracer = self._tracer
        tracer._open.pop(self, None)
        if end is None:
            end = tracer.engine.now
        meta = self.meta
        if extra_meta:
            # A new dict: ``self.meta`` may be shared with other spans.
            meta = tracer._intern_meta({**meta, **extra_meta})
        span = Span(self.lane, self.name, self.start, end, meta)
        # ``Tracer.record`` inlined: every CPU op and kernel closes a
        # span, and this saves the call that interning the meta adds.
        if tracer.enabled:
            tracer.spans.append(span)
        return span


#: Value types :func:`_same_value` can tell apart beyond ``==``.
_EXACT_TYPES = frozenset({str, int, float, bool, type(None)})


def _same_value(a: Any, b: Any) -> bool:
    """``a == b`` with the same type, and for floats the same sign.

    ``1 == 1.0 == True`` and ``0.0 == -0.0``, but a span must keep the
    value it was given. Other types (containers, enums, subclasses) can
    hide the same difference inside, so for them this is always False
    and only the same object is shared.
    """
    kind = type(a)
    if kind is not type(b) or kind not in _EXACT_TYPES or a != b:
        return False
    if kind is float:
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    return True


class Tracer:
    """Collects spans, grouped by lane, in simulation-time order."""

    def __init__(self, engine: "Engine", enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.spans: List[Span] = []
        # In-progress spans, for leak detection: a lane whose span is
        # never closed silently under-counts busy time downstream. An
        # insertion-ordered set (values unused), keyed by identity.
        self._open: Dict[OpenSpan, None] = {}
        self._metas: Dict[Tuple, Dict[str, Any]] = {}

    def _intern_meta(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """The tracer's shared dict holding exactly ``meta``, else ``meta``.

        The first meta with given items becomes the shared one. A later
        meta shares it only if each value is the same object (the usual
        case: a job name, a cached cost) or :func:`_same_value`; one
        that is merely ``==`` stays unshared. So does one with an
        unhashable value.
        """
        items = tuple(meta.items())
        try:
            shared = self._metas.setdefault(items, meta)
        except TypeError:
            return meta
        for key, value in items:
            stored = shared[key]
            if stored is not value and not _same_value(stored, value):
                return meta
        return shared

    def begin(self, lane: str, name: str, **meta: Any) -> OpenSpan:
        """Open a span on ``lane`` starting now."""
        span = OpenSpan(self, lane, name, self.engine.now,
                        self._intern_meta(meta))
        self._open[span] = None
        return span

    @contextmanager
    def span(self, lane: str, name: str,
             **meta: Any) -> Iterator[OpenSpan]:
        """Scoped span: closed automatically on exit (unless already)."""
        open_span = self.begin(lane, name, **meta)
        try:
            yield open_span
        finally:
            if not open_span.closed:
                open_span.close()

    @property
    def open_spans(self) -> List[OpenSpan]:
        return list(self._open)

    def assert_all_closed(self) -> None:
        """Fail loudly if any span was left dangling.

        Experiments should call this after a run: a leaked span means a
        lane's busy time is under-counted, which silently skews every
        busy/idle figure derived from the trace. The leaks are reported
        through the shared analysis Finding model, so they render the
        same way span-leak findings do in a sanitizer report.
        """
        if self._open:
            # Local import: sim is a base layer and must not depend on
            # the analysis package except on this cold error path.
            from repro.analysis.sanitizer import open_span_findings

            dangling = ", ".join(
                f"{f.where}/{s.name}@{f.t_start:.3f}"
                for f, s in zip(open_span_findings(self),
                                self._open, strict=True))
            raise RuntimeError(
                f"{len(self._open)} span(s) never closed: {dangling}")

    def record(self, span: Span) -> None:
        if self.enabled:
            self.spans.append(span)

    def instant(self, lane: str, name: str, **meta: Any) -> None:
        """Record a zero-duration marker."""
        now = self.engine.now
        self.record(Span(lane, name, now, now, self._intern_meta(meta)))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def lanes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.lane, None)
        return list(seen)

    def by_lane(self, lane: str) -> List[Span]:
        return [span for span in self.spans if span.lane == lane]

    def busy_union(self, lanes: Iterable[str], start: float = 0.0,
                   end: Optional[float] = None) -> float:
        """Union busy time over several lanes in ``[start, end]``.

        The profiler's reconciliation target: total time *any* of the
        given lanes had activity, with cross-lane overlap (e.g. a GPU
        kernel concurrent with a PCIe transfer) counted once.
        """
        if end is None:
            end = self.engine.now
        wanted = set(lanes)
        intervals = sorted(
            (max(span.start, start), min(span.end, end))
            for span in self.spans
            if span.lane in wanted and span.end > start and span.start < end
        )
        return union_length(intervals, start)

    def open_span_rows(self) -> List[Dict[str, Any]]:
        """Plain-dict snapshot of in-progress spans (flight recorder)."""
        now = self.engine.now
        return [
            {"lane": s.lane, "name": s.name, "start": s.start,
             "open_for_ms": now - s.start,
             "meta": {k: v if isinstance(v, (str, int, float, bool))
                      or v is None else repr(v)
                      for k, v in s.meta.items()}}
            for s in self._open
        ]

    def to_rows(self) -> List[Dict[str, Any]]:
        """Flatten spans to plain dicts (for CSV/JSON export)."""
        return [
            {"lane": s.lane, "name": s.name, "start": s.start,
             "end": s.end, **s.meta}
            for s in self.spans
        ]


def union_length(intervals: Iterable[Tuple[float, float]],
                 start: float = -math.inf) -> float:
    """Length of the union of ``(lo, hi)`` intervals sorted by ``lo``,
    counting only what lies after ``start``."""
    busy = 0.0
    cursor = start
    for lo, hi in intervals:
        if hi <= cursor:
            continue
        busy += hi - max(lo, cursor)
        cursor = hi
    return busy


def render_ascii_timeline(spans: Iterable[Span], width: int = 100,
                          start: Optional[float] = None,
                          end: Optional[float] = None) -> str:
    """Render spans as a fixed-width ASCII Gantt chart, one row per lane.

    Used by the Figure 2 reproduction to show kernel serialization between
    two co-running models at a glance. Cells covered by two spans that
    genuinely overlap in time render as ``*`` so concurrency is visible
    even when both spans carry the same glyph.
    """
    spans = [s for s in spans if s.duration > 0]
    if not spans:
        return "(empty timeline)"
    lo = min(s.start for s in spans) if start is None else start
    hi = max(s.end for s in spans) if end is None else end
    if hi <= lo:
        return "(empty timeline)"
    scale = width / (hi - lo)
    lanes: Dict[str, List[Span]] = {}
    for span in spans:
        lanes.setdefault(span.lane, []).append(span)
    label_width = max(len(lane) for lane in lanes) + 1
    lines = []
    for lane, lane_spans in lanes.items():
        row = [" "] * width
        owner: List[Optional[Span]] = [None] * width
        for span in lane_spans:
            first = int((max(span.start, lo) - lo) * scale)
            last = int((min(span.end, hi) - lo) * scale)
            first = min(first, width - 1)
            last = min(max(last, first + 1), width)
            glyph = span.meta.get("glyph", "#")
            for index in range(first, last):
                previous = owner[index]
                if (previous is not None and previous is not span
                        and span.overlaps(previous)):
                    # True temporal overlap, not just two adjacent
                    # spans rounding onto the same cell.
                    row[index] = "*"
                else:
                    row[index] = glyph
                    owner[index] = span
        lines.append(f"{lane:<{label_width}}|{''.join(row)}|")
    # Header: the start label sits at the left edge and the end label
    # flush against the right edge, for any label width.
    left = f"{lo:.1f} ms"
    right = f"{hi:.1f} ms"
    if len(left) + len(right) + 1 <= width:
        ruler = left + " " * (width - len(left) - len(right)) + right
    else:
        ruler = left[:width].ljust(width)
    header = f"{'':<{label_width}}|{ruler}|"
    return "\n".join([header] + lines)
