"""Unified observability layer: metrics, traces, structured run logs.

One subsystem answers every "what did the runtime do?" question:

* :class:`MetricsRegistry` — labelled counters/gauges/histograms with
  sim-time-aware rates and p50/p95/p99 quantiles, owned by
  :class:`~repro.core.context.RunContext` and populated by the
  scheduler, gates, thread pools, resource manager and devices.
* :func:`tracer_to_chrome_trace` — export any run's spans to
  ``chrome://tracing`` / Perfetto JSON.
* :class:`RunLog` — sim-timestamped scheduler decisions as JSON lines.
* :func:`profile_run` — causal critical-path attribution of a run's
  wall clock (``python -m repro.obs.profile``).
* :class:`TimeSeriesSampler` — windowed counter/gauge/quantile
  snapshots on the engine clock, off by default.
* :meth:`RunLog.emit_decision` / ``python -m repro.obs.audit`` — structured
  scheduler decision records and the "why did that happen?" query CLI,
  plus the flight recorder dumped on sanitizer/deadlock aborts.
* ``python -m repro.obs.report`` — run one cell of a runner experiment
  and print a metrics summary, per-GPU breakdown and ASCII timeline.
"""

from repro.obs.chrome_trace import (
    tracer_to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.timeseries import TimeSeriesSampler

# The profile/audit modules double as CLIs (python -m repro.obs.X);
# importing them eagerly here would trip runpy's re-import warning, so
# their symbols resolve lazily (PEP 562).
_LAZY = {
    "ProfileResult": "repro.obs.profile",
    "profile_run": "repro.obs.profile",
    "render_profile": "repro.obs.profile",
    "decisions": "repro.obs.audit",
    "dump_flight_record": "repro.obs.audit",
    "emit_decision": "repro.obs.audit",
    "flight_record": "repro.obs.audit",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    merge_quantiles,
)
from repro.obs.procpool import ProcPoolStats
from repro.obs.runlog import RunLog

__all__ = [
    "ProcPoolStats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "ProfileResult",
    "RunLog",
    "TimeSeriesSampler",
    "decisions",
    "dump_flight_record",
    "emit_decision",
    "flight_record",
    "merge_quantiles",
    "profile_run",
    "render_profile",
    "tracer_to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
