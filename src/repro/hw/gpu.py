"""GPU device engine: streams, occupancy-gated admission, contention.

Execution model
---------------
Kernels are launched onto *streams* (CUDA-stream analogues). Within a
stream kernels execute in FIFO order; across streams the device admits a
kernel whenever the **sum of occupancies** of resident kernels stays at
or below 1.0 — exactly the behaviour the paper's occupancy-calculator
analysis describes: tuned cuDNN kernels demand (nearly) the whole device
and therefore serialize, while small elementwise kernels can overlap.

While ``k`` kernels are co-resident, each progresses at rate
``1 / (1 + beta * occ_others)`` — co-running is possible but prolongs
everyone (the Figure 2 observation: ~2x slowdown per model when two
ResNet50s share a V100).

The engine is fully event-driven: progress is integrated lazily on every
admission/completion, and a timer wakes the device at the next
completion time. Only the most recently armed timer counts: the device
keeps it in ``_timer`` and ignores any other that fires.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.hw.kernels import KernelLaunch
from repro.hw.memory import MemoryPool
from repro.hw.specs import GpuSpec
from repro.sim.arith import left_sum
from repro.sim.events import Event, Timeout
from repro.sim.trace import OpenSpan, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

_EPSILON = 1e-9


class _StreamState:
    """FIFO launch queue for one stream; at most one admitted kernel."""

    __slots__ = ("queue", "busy")

    def __init__(self) -> None:
        self.queue: Deque[Tuple[KernelLaunch, Event]] = deque()
        self.busy = False


class _ResidentKernel:
    """A kernel currently executing on the device."""

    __slots__ = ("kernel", "done", "remaining_ms", "rate", "span",
                 "stream_key")

    def __init__(self, kernel: KernelLaunch, done: Event,
                 span: Optional[OpenSpan],
                 stream_key: Tuple[str, int]) -> None:
        self.kernel = kernel
        self.done = done
        self.remaining_ms = kernel.work_ms
        self.rate = 1.0
        self.span = span
        self.stream_key = stream_key


class GpuDevice:
    """One simulated GPU."""

    def __init__(self, engine: "Engine", spec: GpuSpec,
                 tracer: Optional[Tracer] = None,
                 name: Optional[str] = None) -> None:
        self.engine = engine
        self.spec = spec
        self.name = name or spec.name
        self.tracer = tracer
        self.lane = f"gpu:{self.name}"
        self.memory = MemoryPool(self.name, spec.memory_bytes)
        self._streams: Dict[Tuple[str, int], _StreamState] = {}
        self._running: List[_ResidentKernel] = []
        self._last_update = engine.now
        # The one live completion timer; a superseded one still fires
        # and is ignored by identity.
        self._timer: Optional[Timeout] = None
        self._last_context: Optional[str] = None
        self.kernels_completed = 0
        self.context_switches = 0
        # Device-busy accounting (any resident kernel counts): the
        # whole-run busy fraction the observability layer reports.
        self.busy_ms_total = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def launch(self, kernel: KernelLaunch) -> Event:
        """Enqueue ``kernel`` on its (context, stream); returns completion.

        The completion event fires with the kernel itself once execution
        finishes. A queued-but-unadmitted kernel can be revoked with
        :meth:`cancel_queued`.
        """
        done = Event(self.engine)
        key = (kernel.context, kernel.stream)
        state = self._streams.get(key)
        if state is None:
            state = self._streams[key] = _StreamState()
        queue = state.queue
        queue.append((kernel, done))
        if state.busy or len(queue) > 1:
            # Not the head of an idle stream, and every other head was
            # already refused: nothing can be admitted, and the running
            # set and its rates stay as they are.
            self._sync_progress()
            self._arm_timer()
        else:
            self._admit_and_reschedule()
        return done

    def cancel_queued(self, context: str) -> List[KernelLaunch]:
        """Drop every queued (not yet executing) kernel of ``context``.

        Executing kernels are left to drain — the paper's preemption
        design cannot selectively stop dispatched kernels either.
        Returns the cancelled kernels; their completion events fail with
        :class:`repro.sim.errors.EventCancelled` (pre-defused).
        """
        from repro.sim.errors import EventCancelled

        cancelled: List[KernelLaunch] = []
        for (ctx, _stream), state in self._streams.items():
            if ctx != context:
                continue
            while state.queue:
                kernel, done = state.queue.popleft()
                cancelled.append(kernel)
                done.fail(EventCancelled("preempted"))
                done.defused()
        if cancelled:
            self._admit_and_reschedule()
        return cancelled

    def outstanding(self, context: Optional[str] = None) -> int:
        """Number of kernels executing or queued (optionally per context)."""
        count = 0
        for resident in self._running:
            if context is None or resident.kernel.context == context:
                count += 1
        for (ctx, _stream), state in self._streams.items():
            if context is None or ctx == context:
                count += len(state.queue)
        return count

    def drain(self, context: str) -> Event:
        """Event that fires once ``context`` has no resident kernels.

        Queued kernels should be cancelled first (see
        :meth:`cancel_queued`); this waits only for the in-flight ones —
        the critical-path component of SwitchFlow's preemption latency.
        """
        done = self.engine.event()
        residents = [r.done for r in self._running
                     if r.kernel.context == context]
        if not residents:
            done.succeed()
            return done

        barrier = self.engine.all_of(residents)

        def _finish(_event: Event) -> None:
            if not done.triggered:
                done.succeed()

        barrier.callbacks.append(_finish)
        return done

    @property
    def resident_contexts(self) -> List[str]:
        seen: Dict[str, None] = {}
        for resident in self._running:
            seen.setdefault(resident.kernel.context, None)
        return list(seen)

    @property
    def total_occupancy(self) -> float:
        return left_sum(r.kernel.occupancy for r in self._running)

    # ------------------------------------------------------------------
    # Engine internals
    # ------------------------------------------------------------------
    def _sync_progress(self) -> None:
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            if self._running:
                self.busy_ms_total += elapsed
            for resident in self._running:
                resident.remaining_ms -= elapsed * resident.rate
        self._last_update = now

    def busy_ms_until(self, now: Optional[float] = None) -> float:
        """Total device-busy ms so far, including the in-flight stretch."""
        if now is None:
            now = self.engine.now
        busy = self.busy_ms_total
        if self._running and now > self._last_update:
            busy += now - self._last_update
        return busy

    def _recompute_rates(self) -> None:
        running = self._running
        if len(running) <= 1:
            # A lone resident runs at 1 / (1 + beta * 0): exactly 1.0.
            if running:
                running[0].rate = 1.0
            return
        beta = self.spec.contention_beta
        total = self.total_occupancy
        first = running[0].kernel.context
        multi_context = False
        for resident in running:
            if resident.kernel.context != first:
                multi_context = True
                break
        for resident in running:
            others = total - resident.kernel.occupancy
            slowdown = 1.0 + beta * others
            if multi_context:
                # Cross-context sharing thrashes caches harder than
                # same-context stream parallelism.
                slowdown *= 1.0 + 0.5 * beta * others
            resident.rate = 1.0 / slowdown

    def _admit_and_reschedule(self) -> None:
        self._sync_progress()
        # One pass admits everything that fits: an admitted stream turns
        # busy and occupancy only grows, so a head refused here is still
        # refused by a second pass.
        heads = [(state.queue[0][0].launch_id, key, state)
                 for key, state in self._streams.items()
                 if not state.busy and state.queue]
        if heads:
            # Hardware work queues are served in kernel-launch order
            # (with bypass: a younger kernel that fits may start while
            # an older one waits for resources). Launch ids are unique,
            # so the order does not depend on the dict's.
            if len(heads) > 1:
                heads.sort(key=itemgetter(0))
            running = self._running
            # A running total is bit-equal to re-summing: both are the
            # same left fold over the resident kernels.
            total = self.total_occupancy
            for _launch_id, key, state in heads:
                kernel, done = state.queue[0]
                if total + kernel.occupancy > 1.0 + _EPSILON:
                    continue
                state.queue.popleft()
                state.busy = True
                kernel.started_at = self.engine.now
                span = None
                if self.tracer is not None:
                    span = self.tracer.begin(
                        self.lane, kernel.name, context=kernel.context,
                        stream=kernel.stream, occupancy=kernel.occupancy)
                resident = _ResidentKernel(kernel, done, span, key)
                if (self._last_context is not None
                        and kernel.context != self._last_context):
                    # Alternating contexts refill caches/TLBs.
                    resident.remaining_ms += \
                        self.spec.context_switch_overhead_ms
                    self.context_switches += 1
                self._last_context = kernel.context
                running.append(resident)
                total += kernel.occupancy
        self._recompute_rates()
        self._arm_timer()

    def _arm_timer(self) -> None:
        running = self._running
        if not running:
            self._timer = None
            return
        if len(running) == 1:
            resident = running[0]
            horizon = max(resident.remaining_ms, 0.0) / resident.rate
        else:
            horizon = min(
                max(r.remaining_ms, 0.0) / r.rate for r in running)
        timer = self._timer = Timeout(self.engine, horizon)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, event: Timeout) -> None:
        if event is not self._timer:
            return  # superseded by a later admission/completion
        self._sync_progress()
        finished: List[_ResidentKernel] = []
        still_running: List[_ResidentKernel] = []
        for resident in self._running:
            if resident.remaining_ms <= \
                    _EPSILON * max(1.0, resident.kernel.work_ms):
                finished.append(resident)
            else:
                still_running.append(resident)
        if not finished:
            self._arm_timer()
            return
        self._running = still_running
        for resident in finished:
            resident.kernel.finished_at = self.engine.now
            if resident.span is not None:
                resident.span.close()
            stream = self._streams.get(resident.stream_key)
            if stream is not None:
                stream.busy = False
            self.kernels_completed += 1
        # Admit successors before delivering completions so the device
        # never goes idle when work is queued.
        self._admit_and_reschedule()
        for resident in finished:
            if not resident.done.triggered:
                resident.done.succeed(resident.kernel)
