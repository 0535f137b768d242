"""Event primitives for the discrete-event simulation kernel.

The design follows the classic callback-list model: an :class:`Event` starts
*pending*, is *triggered* when scheduled onto the engine's agenda (with a
value or an exception), and becomes *processed* once the engine has invoked
its callbacks. Processes (see :mod:`repro.sim.process`) suspend by yielding
events and are resumed through those callbacks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.sim.errors import EventCancelled, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

# Sentinel for "not yet triggered".
PENDING = object()

# Scheduling priorities: urgent events (interrupts) preempt normal ones that
# are scheduled for the same timestamp.
URGENT = 0
NORMAL = 1

class Event:
    """A one-shot occurrence that processes can wait on.

    An event carries either a value (on success) or an exception (on
    failure). Failures propagate into every waiting process unless a
    callback marks the event as *defused*.

    ``_waiter`` is the direct-resume slot: when exactly one process
    waits on an event (the overwhelmingly common case), it parks itself
    here instead of appending a bound-method callback, and
    ``Engine._dispatch`` resumes it before walking the callback list. The waiter is
    always delivered *before* listed callbacks — the order a plain
    callback list would give, since the slot is only used while the
    list is empty.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused",
                 "_waiter")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._waiter: Optional[Any] = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def defused(self) -> None:
        """Mark a failure as handled so the engine does not crash."""
        self._defused = True

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.engine.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            event.defused()
            self.fail(event._value)

    def cancel(self, reason: Optional[str] = None) -> bool:
        """Fail a still-pending event with :class:`EventCancelled`.

        Returns True if the event was cancelled, False if it had already
        triggered (cancellation raced with completion and lost).
        """
        if self.triggered:
            return False
        self.fail(EventCancelled(reason))
        # A deliberate cancellation is not an error: pre-defuse so the
        # engine does not crash when nobody is waiting on the event.
        self._defused = True
        return True

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units.

    It is triggered from birth: construction schedules it on the engine,
    and :meth:`Engine.timeout` is the usual way to make one.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._value = value
        engine.schedule(self, delay=delay)


class AnyOf(Event):
    """Fires when the first of ``events`` is processed.

    Succeeds with a dict mapping the already-processed events to their
    values. Fails if the first event to fire failed. Note: conditions
    key on *processed*, not *triggered* — a Timeout is triggered from
    birth (it is scheduled), but has not yet occurred.
    """

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: List[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._collect(event)
                break
        else:
            for event in self.events:
                event.callbacks.append(self._collect)

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused()
            self.fail(event._value)
            return
        self.succeed({
            evt: evt._value for evt in self.events
            if evt.processed and evt._ok
        })


class AllOf(Event):
    """Fires when every one of ``events`` has been processed.

    Succeeds with a dict mapping each event to its value; fails as soon
    as any constituent event fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events: List[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._remaining = 0
        for event in self.events:
            if event.processed:
                if not event._ok:
                    event.defused()
                    self.fail(event._value)
                    return
            else:
                self._remaining += 1
                event.callbacks.append(self._collect)
        if self._remaining == 0 and not self.triggered:
            self.succeed({evt: evt._value for evt in self.events})

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defused()
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({evt: evt._value for evt in self.events})
