"""Tests for the GPU engine: streams, admission, contention, cancel."""

import pytest

from repro.hw import KernelLaunch, v100_server
from repro.sim import Engine, EventCancelled, Tracer


@pytest.fixture
def gpu_setup():
    engine = Engine()
    tracer = Tracer(engine)
    machine = v100_server(engine, 1, tracer=tracer)
    return engine, machine.gpu(0), tracer


def _launch_all(engine, gpu, kernels):
    events = [gpu.launch(k) for k in kernels]
    done = engine.all_of(events)

    def waiter(env):
        yield done

    process = engine.process(waiter(engine))
    engine.run(until=process)


class TestExecution:
    def test_single_kernel_takes_its_work_time(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        _launch_all(engine, gpu, [KernelLaunch(
            name="k", context="a", work_ms=7.0, occupancy=1.0)])
        assert engine.now == pytest.approx(7.0)
        assert gpu.kernels_completed == 1

    def test_same_stream_kernels_are_fifo(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [KernelLaunch(name=f"k{i}", context="a", work_ms=5.0,
                                occupancy=0.2, stream=0)
                   for i in range(3)]
        _launch_all(engine, gpu, kernels)
        # Despite tiny occupancy, one stream => strict serialization.
        assert engine.now == pytest.approx(15.0)
        starts = [k.started_at for k in kernels]
        assert starts == sorted(starts)

    def test_heavy_kernels_from_two_contexts_serialize(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [
            KernelLaunch(name="a", context="a", work_ms=10.0, occupancy=1.0),
            KernelLaunch(name="b", context="b", work_ms=10.0, occupancy=1.0),
        ]
        _launch_all(engine, gpu, kernels)
        # Serial execution plus one cross-context switch penalty.
        assert engine.now == pytest.approx(
            20.0 + gpu.spec.context_switch_overhead_ms)
        assert gpu.context_switches == 1

    def test_light_kernels_corun_with_slowdown(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [
            KernelLaunch(name="a", context="a", work_ms=10.0, occupancy=0.3),
            KernelLaunch(name="b", context="b", work_ms=10.0, occupancy=0.3),
        ]
        _launch_all(engine, gpu, kernels)
        # Concurrent but slower than solo, faster than serial.
        assert 10.0 < engine.now < 20.0

    def test_admission_is_launch_order_with_bypass(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        heavy_first = KernelLaunch(name="h1", context="a", work_ms=10.0,
                                   occupancy=1.0)
        heavy_second = KernelLaunch(name="h2", context="b", work_ms=10.0,
                                    occupancy=1.0)
        done = [gpu.launch(heavy_first), gpu.launch(heavy_second)]

        def waiter(env):
            yield env.all_of(done)

        process = engine.process(waiter(engine))
        engine.run(until=process)
        assert heavy_first.finished_at < heavy_second.finished_at

    def test_completion_event_carries_the_kernel(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernel = KernelLaunch(name="k", context="a", work_ms=1.0,
                              occupancy=0.5)
        event = gpu.launch(kernel)

        def waiter(env):
            return (yield event)

        process = engine.process(waiter(engine))
        assert engine.run(until=process) is kernel


class TestPreemptionHooks:
    def test_cancel_queued_drops_unadmitted_only(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        kernels = [KernelLaunch(name=f"k{i}", context="victim",
                                work_ms=10.0, occupancy=1.0)
                   for i in range(4)]
        events = [gpu.launch(k) for k in kernels]

        def preemptor(env):
            yield env.timeout(5.0)
            cancelled = gpu.cancel_queued("victim")
            assert len(cancelled) == 3      # the running one drains
            yield gpu.drain("victim")
            return env.now

        process = engine.process(preemptor(engine))
        assert engine.run(until=process) == pytest.approx(10.0)
        assert events[0].ok
        for event in events[1:]:
            assert event.triggered and not event.ok
            assert isinstance(event.value, EventCancelled)

    def test_cancel_queued_ignores_other_contexts(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        gpu.launch(KernelLaunch(name="v", context="victim", work_ms=5.0,
                                occupancy=1.0))
        other = gpu.launch(KernelLaunch(name="o", context="other",
                                        work_ms=5.0, occupancy=1.0))
        assert gpu.cancel_queued("victim") == []
        engine.run()
        assert other.ok

    def test_drain_with_nothing_resident_fires_immediately(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        event = gpu.drain("ghost")
        assert event.triggered

    def test_outstanding_counts(self, gpu_setup):
        engine, gpu, _ = gpu_setup
        for i in range(3):
            gpu.launch(KernelLaunch(name=f"k{i}", context="a",
                                    work_ms=10.0, occupancy=1.0))
        assert gpu.outstanding() == 3
        assert gpu.outstanding("a") == 3
        assert gpu.outstanding("b") == 0


class TestTracing:
    def test_spans_carry_context(self, gpu_setup):
        engine, gpu, tracer = gpu_setup
        _launch_all(engine, gpu, [KernelLaunch(
            name="k", context="jobX", work_ms=3.0, occupancy=1.0)])
        spans = [s for s in tracer.spans if s.lane == gpu.lane]
        assert len(spans) == 1
        assert spans[0].meta["context"] == "jobX"
        assert spans[0].duration == pytest.approx(3.0)


class TestValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            KernelLaunch(name="k", context="a", work_ms=-1.0, occupancy=0.5)

    def test_occupancy_bounds(self):
        with pytest.raises(ValueError):
            KernelLaunch(name="k", context="a", work_ms=1.0, occupancy=0.0)
        with pytest.raises(ValueError):
            KernelLaunch(name="k", context="a", work_ms=1.0, occupancy=1.5)


class TestCompletionTimer:
    def test_superseded_timer_fires_without_effect(self, gpu_setup):
        # A launch behind a busy stream re-arms the completion timer;
        # the first timer still fires, and must neither complete a
        # kernel nor move the busy-time account.
        engine, gpu, _ = gpu_setup
        first = KernelLaunch(name="a", context="a", work_ms=10.0,
                             occupancy=1.0)
        second = KernelLaunch(name="b", context="a", work_ms=5.0,
                              occupancy=1.0)
        first_done = gpu.launch(first)
        stale = gpu._timer
        engine.run(until=2.0)
        gpu.launch(second)
        assert gpu._timer is not stale
        busy = gpu.busy_ms_total
        engine.run(until=stale)
        assert stale.processed and engine.now == pytest.approx(10.0)
        assert gpu.kernels_completed == 0
        assert not first_done.triggered
        assert gpu.busy_ms_total == busy == 2.0
        engine.run()
        assert gpu.kernels_completed == 2
        assert (first.finished_at, second.finished_at) == \
            pytest.approx((10.0, 15.0))
