"""Simulated synchronization and queueing primitives.

These model OS/runtime constructs (mutexes, semaphores, bounded FIFOs)
inside simulated time. All waiters are served in strict FIFO (or priority)
order, which keeps the simulation deterministic.

Pending ``get``/``put``/``acquire`` requests are plain events and may be
``cancel()``-ed — the hook that SwitchFlow's preemption path uses to abort
work that is queued but not yet running.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from repro.sim import instrument
from repro.sim.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class _Request(Event):
    """A queued resource request; supports cancellation.

    It is built as a plain :class:`Event` and the resource that queues
    it sets ``resource`` itself, which spares a constructor call per
    request.
    """

    __slots__ = ("resource",)

    def cancel(self, reason: Optional[str] = None) -> bool:
        cancelled = super().cancel(reason)
        if cancelled:
            # A cancelled request must not hold up the queue; let the
            # resource drop it and serve the next waiter.
            self.resource._drop(self)
        return cancelled


class Semaphore:
    """Counting semaphore with priority-then-FIFO waiters.

    ``acquire(priority=...)`` lets urgent short work (e.g. executor
    dispatch microtasks) jump ahead of queued bulk work (e.g. image
    decode chunks) — the coarse analogue of OS scheduling classes.
    Within one priority, waiters are served FIFO.
    """

    def __init__(self, engine: "Engine", value: int = 1,
                 name: Optional[str] = None) -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.engine = engine
        self.name = name  # labels the resource in concurrency reports
        self._count = value
        self._waiters: Deque[Tuple[int, int, _Request]] = deque()
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of currently available permits."""
        return self._count

    def acquire(self, priority: int = 0) -> Event:
        """Return an event that fires once a permit is granted.

        Lower ``priority`` values are served first.
        """
        request = _Request(self.engine)
        request.resource = self
        if self._count > 0 and not self._waiters:
            self._count -= 1
            request.succeed()
        else:
            self._seq += 1
            self._waiters.append((priority, self._seq, request))
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.on_sem_acquire(self, request,
                                   exclusive=isinstance(self, Lock))
        return request

    def try_acquire(self) -> bool:
        """Take a permit immediately if one is free."""
        if self._count > 0 and not self._waiters:
            self._count -= 1
            tracker = instrument.TRACKER
            if tracker is not None:
                tracker.on_sem_try(self, exclusive=isinstance(self, Lock))
            return True
        return False

    def release(self) -> None:
        """Return a permit, waking the best-priority oldest waiter."""
        tracker = instrument.TRACKER
        if tracker is not None:
            tracker.on_sem_release(self)
        waiters = self._waiters
        while waiters:
            if len(waiters) == 1:
                # Sole waiter: skip the O(n) best-entry scan.
                request = waiters.popleft()[2]
            else:
                best = min(waiters, key=lambda entry: entry[:2])
                waiters.remove(best)
                request = best[2]
            if not request.triggered:
                request.succeed()
                return
        self._count += 1

    def _drop(self, request: _Request) -> None:
        for entry in self._waiters:
            if entry[2] is request:
                self._waiters.remove(entry)
                break

    def __repr__(self) -> str:
        return (f"<Semaphore count={self._count} "
                f"waiters={len(self._waiters)}>")


class Lock(Semaphore):
    """Binary semaphore (mutex)."""

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, value=1)

    @property
    def locked(self) -> bool:
        return self._count == 0

    def release(self) -> None:
        if self._count == 1 and not self._waiters:
            raise SimulationError("release of an unlocked Lock")
        super().release()


class Store:
    """FIFO queue of items with optional capacity bound.

    ``put`` returns an event that fires when the item has been accepted;
    ``get`` returns an event that fires with the next item.
    """

    def __init__(self, engine: "Engine", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("store capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Request] = deque()
        self._putters: Deque[Tuple[_Request, Any]] = deque()

    # ------------------------------------------------------------------
    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    def put(self, item: Any) -> Event:
        request = _Request(self.engine)
        request.resource = self
        self._putters.append((request, item))
        self._service()
        return request

    def get(self) -> Event:
        request = _Request(self.engine)
        request.resource = self
        self._getters.append(request)
        self._service()
        return request

    def try_get(self) -> Tuple[bool, Any]:
        """Pop an item immediately if one is queued: (ok, item)."""
        self._admit_putters()
        if self._items and not self._getters:
            return True, self._items.popleft()
        return False, None

    def clear(self, predicate: Optional[Callable[[Any], bool]] = None) -> List[Any]:
        """Remove and return queued items matching ``predicate`` (or all).

        Used by preemption to abort work that is queued but not running.
        """
        self._admit_putters()
        if predicate is None:
            removed = list(self._items)
            self._items.clear()
        else:
            removed = [item for item in self._items if predicate(item)]
            self._items = deque(
                item for item in self._items if not predicate(item))
        self._service()
        return removed

    # ------------------------------------------------------------------
    def _admit_putters(self) -> None:
        while self._putters and len(self._items) < self.capacity:
            request, item = self._putters.popleft()
            if request.triggered:
                continue
            self._items.append(item)
            request.succeed()

    def _service(self) -> None:
        self._admit_putters()
        while self._getters and self._items:
            request = self._getters.popleft()
            if request.triggered:
                continue
            request.succeed(self._items.popleft())
            self._admit_putters()

    def _drop(self, request: _Request) -> None:
        try:
            self._getters.remove(request)
        except ValueError:
            pass
        for index, (putter, _item) in enumerate(self._putters):
            if putter is request:
                del self._putters[index]
                break
        self._service()

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} items={len(self._items)} "
                f"getters={len(self._getters)} putters={len(self._putters)}>")


class PriorityStore(Store):
    """Store that yields the smallest item first (items must be orderable)."""

    def __init__(self, engine: "Engine", capacity: float = float("inf")) -> None:
        super().__init__(engine, capacity)
        self._heap: List[Any] = []
        self._heap_seq = 0

    @property
    def items(self) -> List[Any]:
        return [entry[-1] for entry in sorted(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)

    def _admit_putters(self) -> None:
        while self._putters and len(self._heap) < self.capacity:
            request, item = self._putters.popleft()
            if request.triggered:
                continue
            self._heap_seq += 1
            heapq.heappush(self._heap, (item, self._heap_seq, item))
            request.succeed()

    def _service(self) -> None:
        self._admit_putters()
        while self._getters and self._heap:
            request = self._getters.popleft()
            if request.triggered:
                continue
            request.succeed(heapq.heappop(self._heap)[-1])
            self._admit_putters()

    def try_get(self) -> Tuple[bool, Any]:
        self._admit_putters()
        if self._heap and not self._getters:
            return True, heapq.heappop(self._heap)[-1]
        return False, None

    def clear(self, predicate: Optional[Callable[[Any], bool]] = None) -> List[Any]:
        self._admit_putters()
        if predicate is None:
            removed = [entry[-1] for entry in self._heap]
            self._heap = []
        else:
            removed = [entry[-1] for entry in self._heap if predicate(entry[-1])]
            self._heap = [
                entry for entry in self._heap if not predicate(entry[-1])]
            heapq.heapify(self._heap)
        self._service()
        return removed
