"""Serving-layer configuration: overrides for served-model specs.

The runner's ``--serving`` flag (the ``serving`` field of
:class:`~repro.core.options.RunOptions`) and
``make_context(serving=...)`` put a :class:`ServingConfig` on the run
context; :func:`~repro.serving.frontend.run_serving` applies it in
whichever process the experiment executes in.

The config is a set of *overrides* applied on top of each
:class:`~repro.serving.frontend.ServedModelSpec`: arrival rate and
trace kind, queue capacity and shed policy, batch size and window, and
the p99 budget. Unset fields leave the spec alone, so
``--serving rate=80`` sweeps the operating point without touching
anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.serving.admission import SHED_POLICIES
from repro.serving.arrivals import KINDS as TRACE_KINDS


class ServingConfigError(ValueError):
    """A serving spec string failed validation."""


@dataclass(frozen=True)
class ServingConfig:
    """Overrides for served-model specs (None = keep the spec's value)."""

    rate_rps: Optional[float] = None
    trace_kind: Optional[str] = None
    queue_capacity: Optional[int] = None
    shed_policy: Optional[str] = None
    max_batch: Optional[int] = None
    batch_timeout_ms: Optional[float] = None
    slo_p99_ms: Optional[float] = None

    @classmethod
    def parse(cls, spec: str) -> "ServingConfig":
        """Parse the compact ``key=value,key=value`` spec.

        Keys: ``rate`` (requests/s), ``kind`` (poisson | diurnal |
        bursty), ``queue`` (capacity), ``shed`` (drop-newest |
        drop-oldest), ``batch`` (max size), ``timeout`` (batching
        window ms), ``slo`` (p99 budget ms). Example::

            rate=80,kind=bursty,queue=32,shed=drop-oldest,batch=8
        """
        fields = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not value:
                raise ServingConfigError(
                    f"expected key=value, got {part!r}")
            try:
                if key == "rate":
                    fields["rate_rps"] = _positive_float(value, "rate")
                elif key == "kind":
                    if value not in TRACE_KINDS:
                        raise ServingConfigError(
                            f"kind must be one of "
                            f"{', '.join(TRACE_KINDS)}; got {value!r}")
                    fields["trace_kind"] = value
                elif key == "queue":
                    fields["queue_capacity"] = _positive_int(
                        value, "queue")
                elif key == "shed":
                    if value not in SHED_POLICIES:
                        raise ServingConfigError(
                            f"shed must be one of "
                            f"{', '.join(SHED_POLICIES)}; got {value!r}")
                    fields["shed_policy"] = value
                elif key == "batch":
                    fields["max_batch"] = _positive_int(value, "batch")
                elif key == "timeout":
                    fields["batch_timeout_ms"] = _nonnegative_float(
                        value, "timeout")
                elif key == "slo":
                    fields["slo_p99_ms"] = _positive_float(value, "slo")
                else:
                    raise ServingConfigError(
                        f"unknown serving key {key!r} (choices: rate, "
                        f"kind, queue, shed, batch, timeout, slo)")
            except ServingConfigError:
                raise
            except ValueError:
                raise ServingConfigError(
                    f"bad value for {key!r}: {value!r}") from None
        return cls(**fields)


def _positive_float(value: str, key: str) -> float:
    out = float(value)
    if not (math.isfinite(out) and out > 0):
        raise ServingConfigError(
            f"{key} must be positive and finite, got {value}")
    return out


def _nonnegative_float(value: str, key: str) -> float:
    out = float(value)
    if not (math.isfinite(out) and out >= 0):
        raise ServingConfigError(
            f"{key} must be non-negative and finite, got {value}")
    return out


def _positive_int(value: str, key: str) -> int:
    out = int(value)
    if out < 1:
        raise ServingConfigError(f"{key} must be >= 1, got {value}")
    return out
