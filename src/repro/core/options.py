"""Run options: every run-wide setting in one object.

``switchflow-experiments --sanitize --faults PLAN --timeseries MS
--concurrency MODE --serving SPEC`` turns on features that every
harness run must see, wherever the experiment executes; ``--jobs N``
and ``--out DIR`` set the fan-out width and where run artifacts go.
They travel as one frozen :class:`RunOptions`:

* :meth:`RunOptions.parse` is the only validator of the raw flag
  strings; a bad value raises :class:`RunOptionsError` naming the flag,
  and the fault plan is read from disk once per invocation.
* :func:`use_options` activates options for a ``with`` block and
  :func:`current_options` reads the active ones. ``fanout_map`` ships
  the active options with each worker payload and the worker activates
  them with ``jobs=1``, so pool workers see what the parent saw and
  never fan out again.
* :meth:`RunOptions.attach` is the one call the harnesses
  (``run_colocation``, ``run_serving``) make. Anything already attached
  to the context explicitly wins over the options.

SwitchFlow's own user surface, Listing 1's ``TF_*`` variables, stays
in :mod:`repro.core.config`.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only; both sit above core
    from repro.faults.plan import FaultPlan
    from repro.serving.config import ServingConfig

#: Sampler ring capacity when ``--timeseries`` names only an interval.
DEFAULT_TIMESERIES_CAPACITY = 512

#: Smallest accepted ``--timeseries`` interval (simulated ms). The
#: sampler wakes on the absolute grid ``anchor + k * interval``, so its
#: cost grows as 1/interval, and once ``now + interval == now`` the grid
#: stops advancing and the run never ends. The finest interval any
#: harness uses is 5 ms.
MIN_TIMESERIES_INTERVAL_MS = 1.0

class RunOptionsError(ValueError):
    """A run-feature flag failed validation; the message names it."""


@dataclass(frozen=True)
class RunOptions:
    """The run-wide settings (features all off, one worker, no output
    directory by default)."""

    #: Verify the paper's trace invariants after every run; ERROR
    #: findings raise :class:`~repro.analysis.integration.SanitizationError`.
    sanitize: bool = False
    #: Fault plan injected into every run.
    faults: Optional[FaultPlan] = None
    #: ``(interval_ms, capacity)`` of a windowed metrics sampler.
    timeseries: Optional[Tuple[float, int]] = None
    #: ``"hb"`` attaches the concurrency tracker.
    concurrency: Optional[str] = None
    #: Overrides applied to every served-model spec.
    serving: Optional[ServingConfig] = None
    #: Directory for run artifacts: per-experiment JSON, flight records
    #: (``flight/``) and concurrency reports (``concurrency.txt``).
    out: Optional[Path] = None
    #: Fan-out width of ``fanout_map``; pool workers run with 1.
    jobs: int = 1

    @classmethod
    def parse(cls, sanitize: bool = False, faults: Optional[str] = None,
              timeseries: Optional[str] = None,
              concurrency: Optional[str] = None,
              serving: Optional[str] = None, out: Optional[str] = None,
              jobs: int = 1) -> "RunOptions":
        """Validate the raw flag strings (None = flag absent).

        ``faults`` is a plan JSON path, ``timeseries`` is
        ``MS[:capacity]``, ``concurrency`` is ``hb`` (or ``1``),
        ``serving`` is the ``key=value,...`` override spec, ``out`` a
        directory and ``jobs`` a positive worker count.
        """
        from repro.faults.plan import FaultPlan, FaultPlanError
        from repro.serving.config import ServingConfig, ServingConfigError

        plan = config = sampling = mode = None
        try:
            plan = None if faults is None else FaultPlan.load(faults)
        except FaultPlanError as exc:
            raise RunOptionsError(f"--faults: {exc}") from None
        if timeseries is not None:
            sampling = _parse_timeseries(timeseries)
        if concurrency is not None:
            # A bare ``--concurrency`` flag arrives as "1".
            if concurrency not in ("hb", "1"):
                raise RunOptionsError(
                    f"--concurrency: expected 'hb', got {concurrency!r}")
            mode = "hb"
        try:
            config = None if serving is None else ServingConfig.parse(serving)
        except ServingConfigError as exc:
            raise RunOptionsError(f"--serving: {exc}") from None
        if jobs < 1:
            raise RunOptionsError(
                f"--jobs: expected a positive worker count, got {jobs}")
        return cls(sanitize=bool(sanitize), faults=plan, timeseries=sampling,
                   concurrency=mode, serving=config,
                   out=None if out is None else Path(out), jobs=jobs)

    def attach(self, ctx, policy) -> None:
        """Attach each enabled feature ``ctx`` does not already carry,
        and give its fault injector (explicit or not) the policy that
        clock faults act through."""
        if self.faults is not None and ctx.faults is None:
            ctx.attach_faults(self.faults)
        if ctx.faults is not None:
            ctx.faults.bind_policy(policy)
        if self.timeseries is not None and ctx.timeseries is None:
            interval_ms, capacity = self.timeseries
            ctx.attach_timeseries(interval_ms=interval_ms, capacity=capacity)
        if self.concurrency is not None and ctx.concurrency is None:
            ctx.attach_concurrency()
        if self.serving is not None and ctx.serving is None:
            ctx.attach_serving(self.serving)


def _parse_timeseries(spec: str) -> Tuple[float, int]:
    interval, _, capacity = spec.partition(":")
    try:
        interval_ms = float(interval)
        cap = int(capacity) if capacity else DEFAULT_TIMESERIES_CAPACITY
        valid = (math.isfinite(interval_ms)
                 and interval_ms >= MIN_TIMESERIES_INTERVAL_MS
                 and 1 <= cap <= sys.maxsize)
    except ValueError:
        valid = False
    if not valid:
        raise RunOptionsError(
            f"--timeseries: expected 'MS[:capacity]' with a finite "
            f"interval of at least {MIN_TIMESERIES_INTERVAL_MS:g} ms, "
            f"got {spec!r}")
    return interval_ms, cap


_ACTIVE: ContextVar[RunOptions] = ContextVar("run_options",
                                             default=RunOptions())


def current_options() -> RunOptions:
    """The options of the innermost active :func:`use_options` block."""
    return _ACTIVE.get()


@contextmanager
def use_options(options: RunOptions) -> Iterator[RunOptions]:
    """Make ``options`` the active options for the block; the previous
    ones come back on exit, also when the block raises."""
    token = _ACTIVE.set(options)
    try:
        yield options
    finally:
        _ACTIVE.reset(token)
