"""Generator-based simulated processes.

A process wraps a Python generator that *yields events*. When a yielded
event triggers, the generator is resumed with the event's value (or the
event's exception is thrown into it). A process is itself an event that
fires when the generator returns, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.errors import Interrupted, SimulationError
from repro.sim.events import (
    TAG_INITIALIZE, TAG_INTERRUPTION, TAG_PROCESS, URGENT, Event,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

ProcessGenerator = Generator[Event, Any, Any]


class Initialize(Event):
    """Immediately-scheduled event that starts a freshly created process."""

    __slots__ = ("process",)

    _tag = TAG_INITIALIZE

    def __init__(self, engine: "Engine", process: "Process") -> None:
        super().__init__(engine)
        self.process = process
        self._ok = True
        self._value = None
        # Park the process in the waiter slot — no callback list traffic
        # for the universal startup event.
        self._waiter = process
        engine.schedule(self, priority=URGENT)


class Interruption(Event):
    """Urgent event that throws :class:`Interrupted` into a process."""

    __slots__ = ("process",)

    _tag = TAG_INTERRUPTION

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.engine)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.engine.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupted(cause)
        self._defused = True
        self.callbacks.append(self._interrupt)
        self.engine.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            # The process finished between interrupt() and delivery.
            return
        # Unsubscribe the process from whatever it was waiting on so that
        # the stale event does not resume it a second time. The process
        # may be parked in the waiter slot or registered as a listed
        # callback.
        target = process._target
        if target is not None:
            if target._waiter is process:
                target._waiter = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(process._resume)
                except ValueError:
                    pass
        process._resume(self)


class Process(Event):
    """A running simulated activity driven by a generator."""

    __slots__ = ("generator", "_target", "name", "_send", "_throw")

    _tag = TAG_PROCESS

    def __init__(self, engine: "Engine", generator: ProcessGenerator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self.generator = generator
        # Bound methods cached once: _resume runs once per process step,
        # at agenda rates.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time."""
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        engine = self.engine
        engine.active_process = self
        while True:
            try:
                if event._ok:
                    target = self._send(event._value)
                else:
                    # The process is handling the failure; defuse it so the
                    # engine does not also crash on it.
                    event.defused()
                    target = self._throw(event._value)
            except StopIteration as stop:
                self._target = None
                engine.active_process = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                engine.active_process = None
                self.fail(exc)
                return

            if not isinstance(target, Event):
                engine.active_process = None
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}")

            callbacks = target.callbacks
            if callbacks is None:
                # Already fired and delivered: resume immediately with it.
                # (Triggered-but-not-processed targets fall through and
                # wait for delivery, preserving event ordering.)
                event = target
                continue
            self._target = target
            if not callbacks and target._waiter is None:
                # Park in the direct waiter slot instead of allocating
                # a bound-method callback for this wait.
                target._waiter = self
            else:
                callbacks.append(self._resume)
            break
        engine.active_process = None

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
