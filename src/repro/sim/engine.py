"""The discrete-event simulation engine (event loop).

Events are delivered in (time, priority, sequence) order: earlier time
first, URGENT before NORMAL at one time, then schedule order.
:meth:`Engine.run` advances the simulated clock and invokes event
callbacks — which is how processes get resumed. The engine is fully
deterministic: two runs with the same seed and the same process
structure produce identical schedules.

The agenda is array-structured. The four order columns are implicit;
the agenda stores bare event references in position-encoded arrays:

* **time** is the key of a calendar bucket: a dict mapping each
  distinct future timestamp to a pooled list of events, plus a
  float-only heap of distinct times. Popping a time slice is one
  float-heap pop + one dict pop, so ordering cost is paid per
  *distinct timestamp*, not per event — and float-only heap sifts
  avoid tuple comparison entirely.
* **priority** is which lane a reference lives in: urgent buckets
  drain before normal buckets, which drain before the immediate lane
  (all at one timestamp).
* **sequence** is array position: within a lane, append order *is*
  schedule order, so no sequence counter is maintained at all.
* **event** is the one materialised column.

The immediate lane is a double-buffered FIFO (an append array and a
drain array that swap roles), so the dominant ``succeed()`` path costs
one ``list.append``. :meth:`Engine.timeout` recycles pooled
:class:`Timeout` objects (sole-ownership proven via ``getrefcount``
before reuse), and processes park directly in the event's ``_waiter``
slot instead of allocating a bound-method callback per step — see
DESIGN.md §9 for the layout, the event-type tags, and the pooling
lifetime rules.

:class:`repro.sim.heap_engine.HeapEngine` keeps the plain one-heap loop
as a test oracle; ``tests/test_engine_equivalence.py`` requires both to
produce bit-identical transcripts.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Dict, Iterable, List, Optional

from repro.sim import instrument as _instrument
from repro.sim.errors import SimulationError, StopSimulation, UnhandledEventFailure
from repro.sim.events import (
    NORMAL, TAG_TIMEOUT, URGENT, AllOf, AnyOf, Event, Timeout,
)
from repro.sim.process import Process, ProcessGenerator

Infinity = float("inf")

# Pool bounds. Lists are recycled through one pool shared by
# calendar buckets, slice lanes and the immediate double-buffer; Timeout
# objects through a second. Both are caps on *retained* idle objects,
# not on live agenda size.
_LIST_POOL_MAX = 32
_TIMEOUT_POOL_MAX = 512


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

    # Slots turn every hot-path attribute access (timeout creation,
    # lane routing, clock reads) from a dict lookup into an array load.
    __slots__ = ("_now", "active_process",
                 "_buckets", "_urgents", "_times",
                 "_cur_u", "_cur_u_i", "_cur_n", "_cur_n_i",
                 "_slice_open", "_slice_time",
                 "_imq", "_imd", "_imd_i",
                 "_timeout_pool", "_list_pool",
                 "_lb_when", "_lb_list")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self.active_process: Optional[Process] = None
        # Calendar agenda. Future events live in per-time bucket lists;
        # the float heap orders the distinct times. The heap may hold
        # stale or duplicate times (cheaper than keeping it exact);
        # consumers skip entries absent from both dicts.
        self._buckets: Dict[float, List[Event]] = {}
        self._urgents: Dict[float, List[Event]] = {}
        self._times: List[float] = []
        # The open time slice (urgent lane then normal bucket lane,
        # each an array plus a drain cursor).
        self._cur_u: List[Event] = []
        self._cur_u_i = 0
        self._cur_n: List[Event] = []
        self._cur_n_i = 0
        self._slice_open = False
        self._slice_time = self._now
        # Immediate lane — double-buffered FIFO. succeed() appends to
        # `_imq`; the loop drains `_imd` and swaps buffers.
        self._imq: List[Event] = []
        self._imd: List[Event] = []
        self._imd_i = 0
        # Recycled objects.
        self._timeout_pool: List[Timeout] = []
        self._list_pool: List[list] = []
        # Last-bucket cache. Schedules cluster on a few future times
        # (every process in a wave re-arms to the same deadline), so the
        # repeat append skips the dict round trip. Entries go stale only
        # for times already in the past, which no insert can target
        # again: `when == now` routes to the immediate lane and the
        # clock never moves backwards.
        self._lb_when: Optional[float] = None
        self._lb_list: List[Event] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    def peek(self) -> float:
        """Time of the next scheduled event, or infinity if none."""
        if (self._cur_u_i < len(self._cur_u)
                or self._cur_n_i < len(self._cur_n)
                or self._imd_i < len(self._imd)
                or self._imq):
            return self._now
        when = self._next_time()
        return when if when is not None else Infinity

    # ------------------------------------------------------------------
    # Calendar helpers
    # ------------------------------------------------------------------
    def _next_time(self) -> Optional[float]:
        """Next distinct timestamp with pending events, pruning stale
        times-heap entries (times whose buckets were already drained)."""
        times = self._times
        buckets = self._buckets
        urgents = self._urgents
        while times:
            when = times[0]
            if when in buckets or when in urgents:
                return when
            heapq.heappop(times)
        return None

    def _advance_to(self, when: float) -> None:
        """Open the time slice at ``when`` (the head of the times heap)."""
        heapq.heappop(self._times)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("agenda time went backwards")
        self._now = when
        self._open_slice(when)

    def _open_slice(self, when: float) -> None:
        """Pop the calendar buckets at ``when`` into the live slice lanes,
        recycling the previous (fully drained) slice's lists."""
        pool = self._list_pool
        if self._slice_open:
            old_u = self._cur_u
            old_n = self._cur_n
            if len(pool) < _LIST_POOL_MAX:
                del old_u[:]
                pool.append(old_u)
            if old_n is not old_u and len(pool) < _LIST_POOL_MAX:
                del old_n[:]
                pool.append(old_n)
        u = self._urgents.pop(when, None)
        n = self._buckets.pop(when, None)
        self._cur_u = u if u is not None else (pool.pop() if pool else [])
        self._cur_n = n if n is not None else (pool.pop() if pool else [])
        self._cur_u_i = 0
        self._cur_n_i = 0
        self._slice_open = True
        self._slice_time = when

    def _ensure_slice(self) -> None:
        """Make the live slice refer to the current time.

        The slice can refer to an older time only after ``run(until=N)``
        snapped the clock to the horizon — at which point it is fully
        drained — so reopening never discards pending events.
        """
        if not (self._slice_open and self._slice_time == self._now):
            self._open_slice(self._now)

    # ------------------------------------------------------------------
    # Event factories (convenience so processes write `yield env.timeout(x)`)
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ms.

        Recycles a pooled, already-processed :class:`Timeout` when one
        is available — the dominant ``yield env.timeout(x)`` path
        allocates nothing.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        pool = self._timeout_pool
        if pool:
            event = pool.pop()
            event._defused = False
        else:
            # Inlined construction (the two-level __init__ call chain
            # is measurable at agenda rates); mirrors Timeout.__init__.
            event = Timeout.__new__(Timeout)
            event.engine = self
            event.callbacks = []
            event._ok = True
            event._defused = False
            event._waiter = None
        event.delay = delay
        event._value = value
        now = self._now
        when = now + delay
        if when == now:
            self._imq.append(event)
        elif when == self._lb_when:
            self._lb_list.append(event)
        else:
            try:
                bucket = self._buckets[when]
            except KeyError:
                lp = self._list_pool
                bucket = lp.pop() if lp else []
                self._buckets[when] = bucket
                heapq.heappush(self._times, when)
            bucket.append(event)
            self._lb_when = when
            self._lb_list = bucket
        return event

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
        """Place a triggered event on the agenda ``delay`` ms from now."""
        now = self._now
        when = now + delay
        if priority == NORMAL:
            # Lane choice keys on the *computed* fire time: a tiny
            # positive delay can collapse to `when == now`, and such
            # events must keep immediate-lane FIFO order.
            if when == now:
                self._imq.append(event)
                return
            if when == self._lb_when:
                self._lb_list.append(event)
                return
            try:
                bucket = self._buckets[when]
            except KeyError:
                lp = self._list_pool
                bucket = lp.pop() if lp else []
                self._buckets[when] = bucket
                heapq.heappush(self._times, when)
            bucket.append(event)
            self._lb_when = when
            self._lb_list = bucket
            return
        if priority != URGENT:
            raise SimulationError(
                f"the engine supports URGENT/NORMAL priorities, "
                f"got {priority}")
        if (when == now and self._slice_open
                and self._slice_time == now):
            self._cur_u.append(event)
            return
        bucket = self._urgents.get(when)
        if bucket is None:
            lp = self._list_pool
            bucket = lp.pop() if lp else []
            self._urgents[when] = bucket
            heapq.heappush(self._times, when)
        bucket.append(event)

    def step(self) -> None:
        """Process the single next event on the agenda."""
        self._ensure_slice()
        event = self._pop()
        if event is None:
            raise SimulationError("attempt to step an empty agenda")
        self._dispatch(event)

    def _pop(self) -> Optional[Event]:
        """Remove and return the next event, advancing the clock if the
        current slice and immediate lane are drained."""
        cur_u = self._cur_u
        if self._cur_u_i < len(cur_u):
            index = self._cur_u_i
            event = cur_u[index]
            cur_u[index] = None
            self._cur_u_i = index + 1
            return event
        cur_n = self._cur_n
        if self._cur_n_i < len(cur_n):
            index = self._cur_n_i
            event = cur_n[index]
            cur_n[index] = None
            self._cur_n_i = index + 1
            return event
        imd = self._imd
        if self._imd_i < len(imd):
            index = self._imd_i
            event = imd[index]
            imd[index] = None
            self._imd_i = index + 1
            return event
        if self._imq:
            pool = self._list_pool
            if len(pool) < _LIST_POOL_MAX:
                del imd[:]
                pool.append(imd)
            self._imd = imd = self._imq
            self._imq = pool.pop() if pool else []
            event = imd[0]
            imd[0] = None
            self._imd_i = 1
            return event
        when = self._next_time()
        if when is None:
            return None
        self._advance_to(when)
        return self._pop()

    def _dispatch(self, event: Event) -> None:
        """Deliver one event: waiter slot first, then listed callbacks."""
        callbacks = event.callbacks
        event.callbacks = None
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
            if not callbacks:
                # A parked process received the outcome (and defused any
                # failure); nothing else observed this event.
                return
            for callback in callbacks:
                callback(event)
        else:
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
                if horizon < self._now:
                    raise ValueError(
                        f"until={horizon} is in the past (now={self._now})")

        try:
            self._loop(horizon)
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None:
            raise SimulationError(
                "run(until=event) exhausted the agenda before the event fired")
        if horizon is not Infinity and self._now < horizon:
            self._now = horizon
        return None

    def _loop(self, horizon: float) -> None:
        """Inlined event loop.

        Drain order within one time slice: urgent lane, then the
        calendar bucket (events scheduled for this time from an earlier
        time — necessarily older sequence numbers), then the immediate
        lane (events triggered *at* this time, in trigger order). New
        urgent arrivals land in the live urgent lane and preempt the
        rest of the slice, matching the (time, priority, sequence)
        order.

        Slice and lane cursors are mirrored back into engine fields on
        every exit path (``finally``), so a :class:`StopSimulation`, an
        unhandled failure, or a horizon return leaves the engine
        resumable mid-slice.
        """
        self._ensure_slice()
        bounded = horizon is not Infinity
        getrefcount = sys.getrefcount
        timeout_pool = self._timeout_pool
        list_pool = self._list_pool
        bu = self._cur_u
        bui = self._cur_u_i
        bn = self._cur_n
        bni = self._cur_n_i
        imd = self._imd
        imdi = self._imd_i
        try:
            while True:
                if bui < len(bu):
                    event = bu[bui]
                    bu[bui] = None
                    bui += 1
                elif bni < len(bn):
                    event = bn[bni]
                    bn[bni] = None
                    bni += 1
                elif imdi < len(imd):
                    event = imd[imdi]
                    imd[imdi] = None
                    imdi += 1
                elif self._imq:
                    # Swap the immediate-lane double buffer: recycle the
                    # drained array, drain the append array next.
                    if len(list_pool) < _LIST_POOL_MAX:
                        del imd[:]
                        list_pool.append(imd)
                    self._imd = imd = self._imq
                    imdi = 0
                    self._imq = list_pool.pop() if list_pool else []
                    continue
                else:
                    when = self._next_time()
                    if when is None or (bounded and when > horizon):
                        return
                    self._imd_i = imdi
                    self._advance_to(when)
                    bu = self._cur_u
                    bui = 0
                    bn = self._cur_n
                    bni = 0
                    continue
                # -- dispatch (mirrors _dispatch, inlined) --
                callbacks = event.callbacks
                event.callbacks = None
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    # Inlined Process._resume (one generator step):
                    # saves a call frame per step at agenda rates.
                    # Mirrors process.Process._resume — keep in sync.
                    self.active_process = waiter
                    step = event
                    while True:
                        try:
                            if step._ok:
                                target = waiter._send(step._value)
                            else:
                                # Failure handled by the process; defuse
                                # so the engine does not also crash.
                                step.defused()
                                target = waiter._throw(step._value)
                        except StopIteration as stop:
                            waiter._target = None
                            self.active_process = None
                            waiter.succeed(stop.value)
                            break
                        except BaseException as exc:
                            waiter._target = None
                            self.active_process = None
                            waiter.fail(exc)
                            break
                        if not isinstance(target, Event):
                            self.active_process = None
                            raise SimulationError(
                                f"process {waiter.name!r} yielded a "
                                f"non-event: {target!r}")
                        tcb = target.callbacks
                        if tcb is None:
                            # Already fired and delivered: resume
                            # immediately with it.
                            step = target
                            continue
                        waiter._target = target
                        if not tcb and target._waiter is None:
                            target._waiter = waiter
                        else:
                            tcb.append(waiter._resume)
                        self.active_process = None
                        break
                    # Drop the alias: the sole-ownership recycle below
                    # must see `event` referenced by this frame once.
                    step = None
                    if not callbacks:
                        # Sole-ownership recycle: `event` (a processed
                        # timeout nobody else references) goes back to
                        # the pool with its original empty callback list.
                        if (event._tag == TAG_TIMEOUT
                                and len(timeout_pool) < _TIMEOUT_POOL_MAX
                                and getrefcount(event) == 2):
                            event.callbacks = callbacks
                            timeout_pool.append(event)
                        continue
                    for callback in callbacks:
                        callback(event)
                elif len(callbacks) == 1:
                    callbacks[0](event)
                    if (event._tag == TAG_TIMEOUT
                            and len(timeout_pool) < _TIMEOUT_POOL_MAX
                            and getrefcount(event) == 2):
                        # Timeouts cannot fail, so the unhandled-failure
                        # check below is moot; recycle with the (cleared)
                        # original callback list.
                        del callbacks[:]
                        event.callbacks = callbacks
                        timeout_pool.append(event)
                        continue
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise UnhandledEventFailure(
                        f"event failed and nobody handled it: "
                        f"{event._value!r}"
                    ) from event._value
        finally:
            self._cur_u = bu
            self._cur_u_i = bui
            self._cur_n = bn
            self._cur_n_i = bni
            self._imd = imd
            self._imd_i = imdi

    @staticmethod
    def _stop_on(event: Event) -> None:
        if not event._ok:
            # Surface the failure to the caller of run() directly.
            event.defused()
            raise event._value
        raise StopSimulation(event._value)
