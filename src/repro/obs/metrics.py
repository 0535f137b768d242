"""Label-aware metrics registry: counters, gauges, histograms.

The registry is the querying surface of the observability layer: every
runtime component (scheduler, gates, pools, resource manager, devices)
publishes into one :class:`MetricsRegistry` owned by the
:class:`~repro.core.context.RunContext`, and every experiment/report
reads back from it instead of re-deriving quantities from raw spans.

All instruments are *sim-time aware*: the registry is built with a
clock callable (``lambda: engine.now``) and stamps samples/updates with
simulated milliseconds, which lets gauges report time-weighted means
and counters report rates without touching the engine directly.

Metrics are identified by ``name`` plus a label set, prometheus-style::

    reg.counter("sched.preemptions", victim="vgg16").inc()
    reg.histogram("sched.gate_wait_ms", device="V100-0").observe(3.2)
    reg.quantile("sched.gate_wait_ms", 95)     # aggregated over labels
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.metrics.latency import percentile, percentile_sorted

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Base for one labelled series of a metric family."""

    kind = "abstract"

    def __init__(self, family: "MetricFamily", labels: LabelKey) -> None:
        self.family = family
        self.label_key = labels

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self.label_key)

    def _now(self) -> float:
        return self.family.registry.now()


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes, milliseconds)."""

    kind = "counter"

    def __init__(self, family: "MetricFamily", labels: LabelKey) -> None:
        super().__init__(family, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def rate_per_ms(self) -> float:
        """Average rate since t=0 in events per simulated ms."""
        now = self._now()
        return self.value / now if now > 0 else 0.0


class Gauge(_Instrument):
    """A sampled level (queue depth, bytes in use) with a high-water mark.

    Tracks the time integral of the level so utilization-style queries
    (:meth:`time_weighted_mean`) need no extra bookkeeping at the call
    sites.
    """

    kind = "gauge"

    def __init__(self, family: "MetricFamily", labels: LabelKey) -> None:
        super().__init__(family, labels)
        self.value = 0.0
        self.max_value = 0.0
        self._integral = 0.0
        # The registry's clock itself: set() runs once per queue-depth
        # change, so it reads the time with one call.
        self._clock = family.registry._clock
        self._last_update = self._clock()

    def set(self, value: float) -> None:
        now = self._clock()
        self._integral += self.value * (now - self._last_update)
        self._last_update = now
        self.value = float(value)
        self.max_value = max(self.max_value, self.value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def time_weighted_mean(self) -> float:
        now = self._now()
        if now <= 0:
            return self.value
        return (self._integral + self.value * (now - self._last_update)) / now


class Histogram(_Instrument):
    """Raw-sample histogram with p50/p95/p99 quantile queries.

    Simulated runs produce at most a few hundred thousand samples, so
    the full sample set is retained; quantiles are exact (same linear
    interpolation as :func:`repro.metrics.latency.percentile`).
    """

    kind = "histogram"

    def __init__(self, family: "MetricFamily", labels: LabelKey) -> None:
        super().__init__(family, labels)
        self.samples: List[float] = []
        self.sum = 0.0
        # Sorted view of ``samples``, materialized lazily on the first
        # quantile query and invalidated by ``observe``. Report code
        # asks for p50/p95/p99 back to back (and timeseries sampling
        # asks every window), so without the cache each query re-sorts
        # the full sample list.
        self._sorted: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        self.samples.append(float(value))
        self.sum += value
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return self.sum / len(self.samples) if self.samples else 0.0

    def _sorted_view(self) -> List[float]:
        if self._sorted is None or len(self._sorted) != len(self.samples):
            self._sorted = sorted(self.samples)
        return self._sorted

    def quantile(self, pct: float) -> float:
        if not self.samples:
            return 0.0
        return percentile_sorted(self._sorted_view(), pct)

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        ordered = self._sorted_view()
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean(),
            "p50": percentile_sorted(ordered, 50),
            "p95": percentile_sorted(ordered, 95),
            "p99": percentile_sorted(ordered, 99),
            "max": ordered[-1],
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All labelled series sharing one metric name."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str = "") -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self._series: Dict[LabelKey, _Instrument] = {}

    def series(self) -> List[_Instrument]:
        return list(self._series.values())

    def child(self, **labels: Any) -> _Instrument:
        key = _label_key(labels)
        instrument = self._series.get(key)
        if instrument is None:
            instrument = _KINDS[self.kind](self, key)
            self._series[key] = instrument
        return instrument

    # Aggregations across label sets -----------------------------------
    def total(self) -> float:
        """Sum of counter/gauge values (histograms: total sample count)."""
        if self.kind == "histogram":
            return float(sum(s.count for s in self._series.values()))
        return sum(s.value for s in self._series.values())

    def all_samples(self) -> List[float]:
        if self.kind != "histogram":
            raise TypeError(f"{self.name} is a {self.kind}, not a histogram")
        merged: List[float] = []
        for series in self._series.values():
            merged.extend(series.samples)
        return merged

    def quantile(self, pct: float) -> float:
        samples = self.all_samples()
        if not samples:
            return 0.0
        return percentile(samples, pct)


class MetricsRegistry:
    """One namespace of metrics for a single run."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def now(self) -> float:
        return self._clock()

    # ------------------------------------------------------------------
    # Instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(self, name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}")
        if help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._family(name, "counter", help).child(**labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._family(name, "gauge", help).child(**labels)

    def histogram(self, name: str, help: str = "",
                  **labels: Any) -> Histogram:
        return self._family(name, "histogram", help).child(**labels)

    # ------------------------------------------------------------------
    # Collectors: pull-style instrumentation for components that keep
    # their own counters (e.g. GPU busy time). Run before every read.
    # ------------------------------------------------------------------
    def register_collector(
            self, fn: Callable[["MetricsRegistry"], None]) -> None:
        self._collectors.append(fn)

    def collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        self.collect()
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        self.collect()
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, default: float = 0.0,
              **labels: Any) -> float:
        """Read one series' value (counters/gauges) or sample count."""
        self.collect()
        family = self._families.get(name)
        if family is None:
            return default
        if not labels:
            return family.total()
        instrument = family._series.get(_label_key(labels))
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value

    def quantile(self, name: str, pct: float, **labels: Any) -> float:
        """Histogram quantile, aggregated over labels unless given."""
        self.collect()
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return 0.0
        if not labels:
            return family.quantile(pct)
        instrument = family._series.get(_label_key(labels))
        if instrument is None:
            return 0.0
        return instrument.quantile(pct)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump of every metric (JSON-serializable)."""
        self.collect()
        out: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for instrument in family.series():
                entry: Dict[str, Any] = {"labels": instrument.labels}
                if isinstance(instrument, Histogram):
                    entry.update(instrument.summary())
                elif isinstance(instrument, Gauge):
                    entry["value"] = instrument.value
                    entry["max"] = instrument.max_value
                    entry["time_weighted_mean"] = \
                        instrument.time_weighted_mean()
                else:
                    entry["value"] = instrument.value
                series.append(entry)
            out[name] = {"type": family.kind, "help": family.help,
                         "series": series}
        return out

    def render(self, prefix: Optional[str] = None) -> str:
        """Human-readable metrics table (the report CLI's raw section)."""
        self.collect()
        lines: List[str] = []
        for name in sorted(self._families):
            if prefix is not None and not name.startswith(prefix):
                continue
            family = self._families[name]
            for instrument in family.series():
                labels = ",".join(f"{k}={v}"
                                  for k, v in instrument.label_key)
                tag = f"{name}{{{labels}}}" if labels else name
                if isinstance(instrument, Histogram):
                    s = instrument.summary()
                    lines.append(
                        f"{tag}  n={s['count']} mean={s['mean']:.3f} "
                        f"p50={s['p50']:.3f} p95={s['p95']:.3f} "
                        f"p99={s['p99']:.3f} max={s['max']:.3f}")
                elif isinstance(instrument, Gauge):
                    lines.append(
                        f"{tag}  value={instrument.value:.3f} "
                        f"max={instrument.max_value:.3f}")
                else:
                    lines.append(f"{tag}  value={instrument.value:.3f}")
        return "\n".join(lines)


def merge_quantiles(histograms: Iterable[Histogram],
                    pct: float) -> float:
    """Exact quantile over the union of several histograms' samples."""
    merged: List[float] = []
    for histogram in histograms:
        merged.extend(histogram.samples)
    if not merged:
        return 0.0
    return percentile(merged, pct)
