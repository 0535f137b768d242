"""The discrete-event simulation engine (event loop).

Events are delivered in (time, priority, sequence) order: earlier time
first, URGENT before NORMAL at one time, then schedule order.
:meth:`Engine.run` advances the simulated clock and invokes event
callbacks — which is how processes get resumed. The engine is fully
deterministic: two runs with the same seed and the same process
structure produce identical schedules.

The agenda is one binary heap of ``(time, priority, sequence, event)``
tuples; the sequence number is unique, so the event itself is never
compared. Processes park in the event's ``_waiter`` slot instead of
allocating a bound-method callback per step — see DESIGN.md §9.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Tuple

from repro.sim import instrument as _instrument
from repro.sim.errors import SimulationError, StopSimulation, UnhandledEventFailure
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

Infinity = float("inf")


class PeriodicHandle:
    """Cancellation handle for :meth:`Engine.every`."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Engine:
    """Deterministic discrete-event simulation core.

    Time units are abstract; throughout this project they are interpreted
    as **milliseconds** of simulated wall-clock time.
    """

    # Slots turn every hot-path attribute access (lane routing, clock
    # reads) from a dict lookup into an array load.
    __slots__ = ("_now", "active_process", "_heap", "_sequence")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self.active_process: Optional[Process] = None
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or infinity if none."""
        return self._heap[0][0] if self._heap else Infinity

    # ------------------------------------------------------------------
    # Event factories (convenience so processes write `yield env.timeout(x)`)
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ms."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        proc = Process(self, generator, name=name)
        tracker = _instrument.TRACKER
        if tracker is not None:
            tracker.process_created(proc)
        return proc

    def at(self, when: float, callback) -> Timeout:
        """Invoke ``callback(engine)`` at absolute simulated time ``when``.

        The hook the fault injector uses for one-shot clock-scoped
        faults; returns the underlying timeout event so callers can
        await or inspect it.
        """
        when = float(when)
        if when < self._now:
            raise ValueError(
                f"at({when}) is in the past (now={self._now})")
        event = self.timeout(when - self._now)
        event.callbacks.append(lambda _event: callback(self))
        return event

    def every(self, interval_ms: float, callback,
              first_delay_ms: Optional[float] = None) -> "PeriodicHandle":
        """Invoke ``callback(engine)`` every ``interval_ms`` until cancelled.

        The periodic backbone of the time-series sampler (and clock
        faults): each firing re-arms the next via a plain timeout, so a
        bounded ``run(until=...)`` simply leaves the final pending
        timeout on the agenda. With ``run(until=None)`` an uncancelled
        periodic keeps the agenda non-empty forever — cancel it first.

        Each re-arm targets the *absolute* next fire time
        ``anchor + k * interval`` rather than a relative interval from
        the previous firing, so float rounding does not compound across
        thousands of windows (the error per firing stays within one ulp
        of the ideal grid instead of accumulating).
        """
        interval_ms = float(interval_ms)
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {interval_ms}")
        handle = PeriodicHandle()
        first_delay = (interval_ms if first_delay_ms is None
                       else float(first_delay_ms))
        anchor = self._now + first_delay
        fired = 0

        def _arm(delay: float) -> None:
            event = self.timeout(delay)
            event.callbacks.append(_fire)

        def _fire(_event: Event) -> None:
            nonlocal fired
            if handle.cancelled:
                return
            callback(self)
            if not handle.cancelled:
                fired += 1
                delay = (anchor + fired * interval_ms) - self._now
                _arm(delay if delay > 0.0 else 0.0)

        _arm(first_delay)
        return handle

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first event in ``events`` fires."""
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # Scheduling and the main loop
    # ------------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Place a triggered event on the agenda ``delay`` ms from now.

        Raises :class:`ValueError` when the fire time would be in the
        past, infinite or NaN, and :class:`SimulationError` for a
        priority other than URGENT or NORMAL.
        """
        if priority != NORMAL and priority != URGENT:
            raise SimulationError(
                f"the engine supports URGENT/NORMAL priorities, "
                f"got {priority}")
        now = self._now
        when = now + delay
        if not now <= when < Infinity:  # a negative, infinite or NaN delay
            raise ValueError(
                f"cannot schedule an event at {when} (now={now})")
        self._sequence += 1
        heapq.heappush(self._heap, (when, priority, self._sequence, event))

    def step(self) -> None:
        """Process the single next event on the agenda."""
        event = self._pop(Infinity)
        if event is None:
            raise SimulationError("attempt to step an empty agenda")
        self._dispatch(event)

    def _pop(self, horizon: float) -> Optional[Event]:
        """Remove and return the next event, advancing the clock to its
        time, or return None if no event is due at or before
        ``horizon``."""
        heap = self._heap
        if not heap or heap[0][0] > horizon:
            return None
        when, _priority, _sequence, event = heapq.heappop(heap)
        self._now = when
        return event

    def _dispatch(self, event: Event) -> None:
        """Deliver one event: waiter slot first, then listed callbacks."""
        callbacks = event.callbacks
        event.callbacks = None
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise UnhandledEventFailure(
                f"event failed and nobody handled it: {event._value!r}"
            ) from event._value

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the agenda drains), a number
        (run until that simulated time), or an :class:`Event` (run until
        that event is processed, returning its value).

        Clock semantics for a numeric ``until``: when the loop finishes
        normally — the horizon is reached *or* the agenda drains early —
        the clock lands on ``until`` exactly once. A :class:`StopSimulation`
        (or an unhandled failure) leaves the clock at the time of the
        event that raised it; it never jumps ahead to the horizon.
        """
        stop_event: Optional[Event] = None
        horizon = Infinity
        if until is not None:
            if isinstance(until, Event):
                # Processed, not triggered: a Timeout (or any succeeded
                # event still on the agenda) is triggered before it
                # happens, and the clock must reach it first.
                if until.processed:
                    return until.value
                stop_event = until
                stop_event.callbacks.append(self._stop_on)
            else:
                horizon = float(until)
                if not horizon >= self._now:  # in the past, or NaN
                    raise ValueError(
                        f"until={horizon} is not a time at or after "
                        f"now={self._now}")

        try:
            self._loop(horizon)
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None:
            raise SimulationError(
                "run(until=event) exhausted the agenda before the event fired")
        if horizon != Infinity and self._now < horizon:
            self._now = horizon
        return None

    def _loop(self, horizon: float) -> None:
        """Deliver events in order until none is due at or before
        ``horizon``. The agenda lives in the engine's fields between
        two events, so a :class:`StopSimulation`, an unhandled failure
        or a horizon return leaves the engine resumable."""
        pop = self._pop
        dispatch = self._dispatch
        event = pop(horizon)
        while event is not None:
            dispatch(event)
            event = pop(horizon)

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            # Surface the failure to the caller of run() directly.
            event.defused()
            raise event._value
        raise StopSimulation(event._value)
