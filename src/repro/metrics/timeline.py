"""Timeline post-processing: GPU busy/idle accounting (Figures 2-3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.trace import Tracer, union_length


@dataclass(frozen=True)
class SessionBreakdown:
    """One session's GPU-time accounting (the Figure 3 quantities)."""

    session_ms: float
    gpu_busy_ms: float

    @property
    def gpu_idle_ms(self) -> float:
        return max(0.0, self.session_ms - self.gpu_busy_ms)

    @property
    def gpu_busy_fraction(self) -> float:
        if self.session_ms <= 0:
            return 0.0
        return min(1.0, self.gpu_busy_ms / self.session_ms)

    @property
    def gpu_idle_percent(self) -> float:
        return 100.0 * (1.0 - self.gpu_busy_fraction)


def gpu_busy_in_window(tracer: Tracer, gpu_lane: str, start: float,
                       end: float, context: Optional[str] = None) -> float:
    """Unioned GPU-busy time within [start, end], optionally per job."""
    intervals = sorted(
        (max(span.start, start), min(span.end, end))
        for span in tracer.spans
        if span.lane == gpu_lane and span.end > start and span.start < end
        and (context is None or span.meta.get("context") == context))
    return union_length(intervals, start)


def session_breakdown(tracer: Tracer, gpu_lane: str, start: float,
                      end: float,
                      context: Optional[str] = None) -> SessionBreakdown:
    """Figure 3 measurement: session length vs. GPU busy time within it."""
    return SessionBreakdown(
        session_ms=end - start,
        gpu_busy_ms=gpu_busy_in_window(tracer, gpu_lane, start, end,
                                       context=context))


def mean_breakdown(breakdowns: List[SessionBreakdown]) -> SessionBreakdown:
    if not breakdowns:
        raise ValueError("no session breakdowns to average")
    return SessionBreakdown(
        session_ms=sum(b.session_ms for b in breakdowns) / len(breakdowns),
        gpu_busy_ms=sum(b.gpu_busy_ms for b in breakdowns) / len(breakdowns),
    )


def serialization_fraction(tracer: Tracer, gpu_lane: str,
                           contexts: Tuple[str, str],
                           start: float = 0.0,
                           end: Optional[float] = None) -> float:
    """Of the GPU's total busy time, the fraction with ONE context active.

    The Figure 2 diagnostic: values near 1.0 mean the two co-located
    models effectively serialized on the device.
    """
    if end is None:
        # Cover everything recorded, even when spans were injected
        # without advancing the simulated clock.
        latest = max((span.end for span in tracer.spans
                      if span.lane == gpu_lane), default=0.0)
        end = max(tracer.engine.now, latest)
    spans_a = _context_spans(tracer, gpu_lane, contexts[0], start, end)
    spans_b = _context_spans(tracer, gpu_lane, contexts[1], start, end)
    busy_a = union_length(spans_a)
    busy_b = union_length(spans_b)
    overlap = _pairwise_overlap(spans_a, spans_b)
    total = busy_a + busy_b - overlap
    if total <= 0:
        return 0.0
    return 1.0 - overlap / total


def _context_spans(tracer: Tracer, lane: str, context: str, start: float,
                   end: float) -> List[Tuple[float, float]]:
    return sorted(
        (max(span.start, start), min(span.end, end))
        for span in tracer.spans
        if span.lane == lane and span.meta.get("context") == context
        and span.end > start and span.start < end)


def _pairwise_overlap(a: List[Tuple[float, float]],
                      b: List[Tuple[float, float]]) -> float:
    """Total overlap between two sorted interval lists (sorted merge).

    ``index_b`` skips intervals of ``b`` that end before the current
    ``a`` interval starts; since both lists are sorted by start, those
    can never overlap any later ``a`` interval either.
    """
    overlap = 0.0
    index_b = 0
    for low_a, high_a in a:
        while index_b < len(b) and b[index_b][1] <= low_a:
            index_b += 1
        for low_b, high_b in b[index_b:]:
            if low_b >= high_a:
                break
            lap = min(high_a, high_b) - max(low_a, low_b)
            if lap > 0:
                overlap += lap
    return overlap
