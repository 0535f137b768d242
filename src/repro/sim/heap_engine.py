"""Reference event loop: one binary heap, used as a test oracle.

:class:`HeapEngine` orders the agenda explicitly — one heap of
(time, priority, sequence, event) tuples, popped one entry per event —
which is the ordering :class:`~repro.sim.engine.Engine` encodes
implicitly in its calendar buckets and due FIFOs. The equivalence
suite runs the same workloads on both and requires bit-identical
transcripts; ``benchmarks/bench_core.py`` measures the engine's speedup
against it. Simulations never use it.

Only the agenda differs: :meth:`Engine.step`, :meth:`Engine._loop` and
:meth:`Engine._dispatch` are shared, so processes park in the
``_waiter`` slot exactly as they do on the engine.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.sim.engine import Engine, Infinity
from repro.sim.events import NORMAL, Event


class HeapEngine(Engine):
    """:class:`Engine` with the agenda kept in a single binary heap."""

    __slots__ = ("_heap", "_sequence")

    def __init__(self, initial_time: float = 0.0) -> None:
        super().__init__(initial_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        now = self._now
        when = now + delay
        if not now <= when < Infinity:  # a negative, infinite or NaN delay
            raise ValueError(
                f"cannot schedule an event at {when} (now={now})")
        self._sequence += 1
        heapq.heappush(self._heap, (when, priority, self._sequence, event))

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else Infinity

    def _pop(self, horizon: float) -> Optional[Event]:
        heap = self._heap
        if not heap or heap[0][0] > horizon:
            return None
        when, _priority, _sequence, event = heapq.heappop(heap)
        self._now = when
        return event
