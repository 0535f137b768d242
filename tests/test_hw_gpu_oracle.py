"""Differential test: GpuDevice == the plain multi-pass GPU engine.

:class:`GpuDevice` admits in one pass, skips admission for a launch
behind a busy stream or an older head, and takes single-resident
shortcuts for the contention rate and the completion timer (DESIGN.md,
"GPU engine"). :class:`ReferenceGpuDevice` below keeps the plain
algorithm: every launch re-runs admission, admission repeats until a
pass admits nothing, rates come from the resident-context set, and the
timer horizon is a minimum over every resident. Both run the same
random launch programs (1-3 contexts x 1-3 streams, occupancies in
(0, 1], zero-work kernels, ``cancel_queued`` and ``drain`` at random
times) and must give identical kernel start and finish times, context
switches, busy time, completion order and spans.

None of the end-to-end workloads keeps two kernels resident at once, so
this is the test that covers the multi-resident, multi-context branch.
"""

from typing import List

from hypothesis import example, given, settings, strategies as st

from repro.hw import KernelLaunch, TESLA_V100
from repro.hw.gpu import (
    _EPSILON,
    GpuDevice,
    _ResidentKernel,
    _StreamState,
)
from repro.sim import Engine, Tracer

CONTEXTS = ("a", "b", "c")


class ReferenceGpuDevice(GpuDevice):
    """The GPU engine without fast paths: the oracle."""

    def launch(self, kernel: KernelLaunch):
        done = self.engine.event()
        key = (kernel.context, kernel.stream)
        state = self._streams.setdefault(key, _StreamState())
        state.queue.append((kernel, done))
        self._admit_and_reschedule()
        return done

    def _recompute_rates(self) -> None:
        beta = self.spec.contention_beta
        total = self.total_occupancy
        multi_context = len(self.resident_contexts) > 1
        for resident in self._running:
            others = total - resident.kernel.occupancy
            slowdown = 1.0 + beta * others
            if multi_context:
                slowdown *= 1.0 + 0.5 * beta * others
            resident.rate = 1.0 / slowdown

    def _admit_and_reschedule(self) -> None:
        self._sync_progress()
        admitted = True
        while admitted:
            admitted = False
            heads = sorted(
                ((state.queue[0][0].launch_id, key, state)
                 for key, state in self._streams.items()
                 if not state.busy and state.queue),
                key=lambda entry: entry[0])
            for _launch_id, key, state in heads:
                kernel, done = state.queue[0]
                if self.total_occupancy + kernel.occupancy > 1.0 + _EPSILON:
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
                    resident.remaining_ms += \
                        self.spec.context_switch_overhead_ms
                    self.context_switches += 1
                self._last_context = kernel.context
                self._running.append(resident)
                admitted = True
        self._recompute_rates()
        self._arm_timer()

    def _arm_timer(self) -> None:
        if not self._running:
            self._timer = None
            return
        horizon = min(
            max(r.remaining_ms, 0.0) / r.rate for r in self._running)
        self._timer = self.engine.timeout(horizon)
        self._timer.callbacks.append(self._on_timer)

    def _on_timer(self, event) -> None:
        if event is not self._timer:
            return
        self._sync_progress()
        finished = [r for r in self._running
                    if r.remaining_ms <= _EPSILON * max(1.0, r.kernel.work_ms)]
        if not finished:
            self._arm_timer()
            return
        self._running = [r for r in self._running if r not in finished]
        for resident in finished:
            resident.kernel.finished_at = self.engine.now
            if resident.span is not None:
                resident.span.close()
            stream = self._streams.get(resident.stream_key)
            if stream is not None:
                stream.busy = False
            self.kernels_completed += 1
        self._admit_and_reschedule()
        for resident in finished:
            if not resident.done.triggered:
                resident.done.succeed(resident.kernel)


def run_program(device_cls, program: List[tuple]) -> dict:
    """Run ``program`` on a fresh device; return everything observable.

    Each step is ``(gap, action)``. ``gap`` None runs the action in the
    same process step as the previous one; a number first waits that
    many ms (0.0 lets other events of the same instant run first).
    """
    engine = Engine()
    tracer = Tracer(engine)
    gpu = device_cls(engine, TESLA_V100, tracer=tracer, name="gpu0")
    kernels: List[KernelLaunch] = []
    log: List[tuple] = []

    def on_done(event, name):
        log.append(("done", name, engine.now, event.ok))

    def on_drained(_event, context):
        log.append(("drained", context, engine.now))

    def driver(env):
        for gap, action in program:
            if gap is not None:
                yield env.timeout(gap)
            kind, context = action[0], CONTEXTS[action[1]]
            if kind == "launch":
                _kind, _ctx, stream, work_ms, occupancy = action
                kernel = KernelLaunch(
                    name=f"k{len(kernels)}", context=context,
                    work_ms=work_ms, occupancy=occupancy, stream=stream)
                kernels.append(kernel)
                gpu.launch(kernel).callbacks.append(
                    lambda event, name=kernel.name: on_done(event, name))
            elif kind == "cancel":
                cancelled = gpu.cancel_queued(context)
                log.append(("cancel", context, env.now,
                            [kernel.name for kernel in cancelled]))
            else:
                gpu.drain(context).callbacks.append(
                    lambda event, context=context: on_drained(event, context))

    engine.process(driver(engine))
    engine.run()
    return {
        "kernels": [(k.name, k.started_at, k.finished_at) for k in kernels],
        "log": log,
        "context_switches": gpu.context_switches,
        "kernels_completed": gpu.kernels_completed,
        "busy_ms_total": gpu.busy_ms_total,
        "now": engine.now,
        "spans": [(s.lane, s.name, s.start, s.end, sorted(s.meta.items()))
                  for s in tracer.spans],
    }


def assert_same(program: List[tuple]) -> dict:
    expected = run_program(ReferenceGpuDevice, program)
    actual = run_program(GpuDevice, program)
    assert actual == expected
    return actual


gaps = st.one_of(st.none(), st.just(0.0),
                 st.sampled_from([0.5, 1.0, 2.5]),
                 st.floats(min_value=0.001, max_value=6.0))
contexts = st.integers(min_value=0, max_value=len(CONTEXTS) - 1)
launches = st.tuples(
    st.just("launch"), contexts, st.integers(min_value=0, max_value=2),
    st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 3.0]),
              st.floats(min_value=0.001, max_value=10.0)),
    st.one_of(st.sampled_from([1.0, 0.5, 0.34, 0.25, 0.1]),
              st.floats(min_value=0.01, max_value=1.0)))
actions = st.one_of(
    launches, launches, launches,
    st.tuples(st.just("cancel"), contexts),
    st.tuples(st.just("drain"), contexts))
programs = st.lists(st.tuples(gaps, actions), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(programs)
@example([(None, ("launch", 0, 0, 4.0, 0.3)),
          (None, ("launch", 1, 0, 4.0, 0.3)),
          (None, ("launch", 0, 1, 2.0, 0.2)),
          (1.0, ("launch", 2, 2, 0.0, 0.5)),
          (None, ("cancel", 1)),
          (None, ("drain", 0))])
def test_random_programs_match_reference(program):
    assert_same(program)


def test_two_context_corun_matches_reference():
    """Light kernels of two contexts co-run: the multi-context rate path."""
    program = [(None, ("launch", 0, 0, 5.0, 0.3)),
               (None, ("launch", 1, 0, 5.0, 0.3)),
               (None, ("launch", 1, 1, 3.0, 0.3)),
               (None, ("launch", 0, 0, 1.0, 0.9)),
               (0.5, ("drain", 1))]
    result = assert_same(program)
    starts = {name: start for name, start, _end in result["kernels"]}
    # Three kernels of two contexts start together and share the device.
    assert starts["k0"] == starts["k1"] == starts["k2"] == 0.0
    assert result["context_switches"] >= 1
