"""Windowed time-series snapshots of the metrics registry.

End-of-run aggregates hide trajectories: a serving job whose p95 is
fine *on average* may spend every preemption window deep in the tail.
The :class:`TimeSeriesSampler` closes that gap — a periodic process on
the engine clock snapshots every registry instrument each ``interval_ms``
simulated milliseconds, recording per-window counter deltas/rates,
gauge levels, and histogram quantiles **over the samples observed in
that window only**.

Design constraints (ISSUE 6):

* **Off by default, zero-cost when disabled.** Nothing samples unless
  a sampler is attached (``RunContext.attach_timeseries`` / the
  ``timeseries`` run option); no instrument pays any per-observation cost
  either way — windows are computed from count marks at snapshot time.
* **Bounded memory.** Windows live in a ring buffer
  (``deque(maxlen=capacity)``); a week-long simulated run keeps the
  last ``capacity`` windows, which is what the flight recorder wants.
* **Deterministic.** Driven solely by the sim clock, so two runs of
  the same seed produce identical window sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.metrics.latency import percentile_sorted
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def _tag(name: str, label_key: Tuple[Tuple[str, str], ...]) -> str:
    labels = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{labels}}}" if labels else name


class TimeSeriesSampler:
    """Ring buffer of per-window metric snapshots for one run."""

    def __init__(self, engine, metrics: MetricsRegistry,
                 interval_ms: float = 100.0, capacity: int = 512) -> None:
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.metrics = metrics
        self.interval_ms = float(interval_ms)
        self.capacity = capacity
        self.windows: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        # Per-instrument marks from the previous window boundary:
        # counter totals and histogram sample counts, keyed by id() of
        # the instrument (stable for the registry's lifetime).
        self._counter_marks: Dict[int, float] = {}
        self._histogram_marks: Dict[int, int] = {}
        self._handle = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TimeSeriesSampler":
        """Arm the periodic sampling process (idempotent)."""
        if self._handle is None:
            self._handle = self.engine.every(self.interval_ms,
                                             lambda _engine: self.sample())
        return self

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """Take one window snapshot now; returns (and stores) it."""
        window: Dict[str, Any] = {
            "t_ms": self.engine.now,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for family in self.metrics.families():
            for instrument in family.series():
                tag = _tag(family.name, instrument.label_key)
                if isinstance(instrument, Counter):
                    mark = self._counter_marks.get(id(instrument), 0.0)
                    delta = instrument.value - mark
                    self._counter_marks[id(instrument)] = instrument.value
                    window["counters"][tag] = {
                        "total": instrument.value,
                        "delta": delta,
                        "rate_per_ms": delta / self.interval_ms,
                    }
                elif isinstance(instrument, Gauge):
                    window["gauges"][tag] = instrument.value
                elif isinstance(instrument, Histogram):
                    mark = self._histogram_marks.get(id(instrument), 0)
                    fresh = sorted(instrument.samples[mark:])
                    self._histogram_marks[id(instrument)] = \
                        len(instrument.samples)
                    entry: Dict[str, float] = {"count": len(fresh)}
                    if fresh:
                        entry.update(
                            p50=percentile_sorted(fresh, 50),
                            p95=percentile_sorted(fresh, 95),
                            p99=percentile_sorted(fresh, 99))
                    window["histograms"][tag] = entry
        self.windows.append(window)
        return window

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def recent_rows(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """Plain-data copies of the most recent windows (oldest first)."""
        rows = list(self.windows)
        if last is not None:
            rows = rows[-last:]
        return rows

    def series(self, tag: str, field: str = "delta"
               ) -> List[Tuple[float, float]]:
        """One metric's trajectory: [(window t_ms, value), ...].

        ``tag`` is the rendered instrument tag (``name{k=v}``; bare
        ``name`` for unlabelled series). ``field`` picks the window
        statistic: counters use total/delta/rate_per_ms, histograms
        count/p50/p95/p99; gauges ignore ``field``.
        """
        points: List[Tuple[float, float]] = []
        for window in self.windows:
            for section in ("counters", "histograms"):
                entry = window[section].get(tag)
                if entry is not None and field in entry:
                    points.append((window["t_ms"], entry[field]))
                    break
            else:
                if tag in window["gauges"]:
                    points.append((window["t_ms"], window["gauges"][tag]))
        return points

    def tags(self) -> List[str]:
        """Every instrument tag seen in any window, sorted."""
        seen = set()
        for window in self.windows:
            for section in ("counters", "gauges", "histograms"):
                seen.update(window[section])
        return sorted(seen)

    def chrome_counters(self) -> Dict[str, List[Tuple[float, Dict[str, float]]]]:
        """Counter tracks for the Chrome-trace exporter (``ph: "C"``).

        One track per metric family: counter families export the
        per-window rate, gauge families the level, histogram families
        the window p95 — each labelled series becomes one stacked
        component of the track.
        """
        tracks: Dict[str, Dict[float, Dict[str, float]]] = {}

        def _put(track: str, t_ms: float, key: str, value: float) -> None:
            tracks.setdefault(track, {}).setdefault(t_ms, {})[key] = value

        for window in self.windows:
            t_ms = window["t_ms"]
            for tag, entry in window["counters"].items():
                name, _, labels = tag.partition("{")
                _put(f"{name} (per ms)", t_ms, labels.rstrip("}") or "all",
                     entry["rate_per_ms"])
            for tag, value in window["gauges"].items():
                name, _, labels = tag.partition("{")
                _put(name, t_ms, labels.rstrip("}") or "all", value)
            for tag, entry in window["histograms"].items():
                if "p95" not in entry:
                    continue
                name, _, labels = tag.partition("{")
                _put(f"{name} (p95)", t_ms, labels.rstrip("}") or "all",
                     entry["p95"])
        return {track: sorted(samples.items())
                for track, samples in tracks.items()}

    def render(self, last: int = 12, width_hint: int = 100) -> str:
        """Compact per-window table of the busiest instruments."""
        rows = self.recent_rows(last=last)
        if not rows:
            return "(no windows sampled)"
        lines = [f"interval {self.interval_ms:.0f} ms, "
                 f"{len(self.windows)} window(s) retained "
                 f"(showing last {len(rows)})"]
        # Counters with any activity in the shown range, busiest first.
        activity: Dict[str, float] = {}
        for window in rows:
            for tag, entry in window["counters"].items():
                activity[tag] = activity.get(tag, 0.0) + entry["delta"]
        busy = sorted((tag for tag, total in activity.items() if total > 0),
                      key=lambda tag: -activity[tag])[:6]
        for index, tag in enumerate(busy, start=1):
            lines.append(f"c{index} = {tag} (delta per window)")
        lines.append("t_ms".rjust(10) + "".join(
            f"c{index}".rjust(14) for index in range(1, len(busy) + 1)))
        for window in rows:
            cells = [f"{window['t_ms']:10.0f}"]
            cells.extend(
                f"{window['counters'].get(tag, {}).get('delta', 0.0):14.1f}"
                for tag in busy)
            lines.append("".join(cells))
        return "\n".join(lines)
