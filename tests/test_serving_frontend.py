"""Serving front-end: admission, batching, SLO accounting, harness."""

import pytest

from repro.core import (
    JobHandle,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    RunOptions,
    SwitchFlowPolicy,
    make_context,
    use_options,
)
from repro.baselines import MultiThreadedTF, SessionTimeSlicing
from repro.hw import v100_server
from repro.models import get_model
from repro.serving import (
    AdmissionQueue,
    RequestBatcher,
    Request,
    SLOTarget,
    ServedModelSpec,
    ServingConfig,
    make_trace,
    run_serving,
)
from repro.sim import Engine
from repro.workloads import JobSpec


# ---------------------------------------------------------------------------
# Admission queue
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            AdmissionQueue(engine, capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(engine, capacity=4, shed_policy="nonesuch")

    def test_drop_newest_rejects_arrival(self):
        engine = Engine()
        queue = AdmissionQueue(engine, capacity=2,
                               shed_policy="drop-newest")
        first = Request(rid=0, arrival_ms=0.0)
        second = Request(rid=1, arrival_ms=0.0)
        third = Request(rid=2, arrival_ms=0.0)
        assert queue.offer(first).admitted
        assert queue.offer(second).admitted
        outcome = queue.offer(third)
        assert not outcome.admitted and outcome.evicted is None
        assert third.shed_reason == "queue-full"
        assert [r.rid for r in queue.take(8)] == [0, 1]

    def test_drop_oldest_evicts_head(self):
        engine = Engine()
        queue = AdmissionQueue(engine, capacity=2,
                               shed_policy="drop-oldest")
        requests = [Request(rid=i, arrival_ms=0.0) for i in range(3)]
        for request in requests:
            assert queue.offer(request).admitted
        evicted = queue.offer(Request(rid=3, arrival_ms=0.0)).evicted
        # rid 0 went out when rid 2 arrived; rid 1 goes out for rid 3.
        assert requests[0].shed_reason == "evicted"
        assert evicted is requests[1]
        assert [r.rid for r in queue.take(8)] == [2, 3]

    def test_wait_event_fires_on_admit_and_close(self):
        engine = Engine()
        queue = AdmissionQueue(engine, capacity=4)
        seen = []

        def waiter():
            yield queue.wait_event()
            seen.append("admit")
            queue.take(1)
            yield queue.wait_event()
            seen.append("close")

        def driver():
            yield engine.timeout(1.0)
            queue.offer(Request(rid=0, arrival_ms=engine.now))
            yield engine.timeout(1.0)
            queue.close()

        engine.process(waiter())
        engine.process(driver())
        engine.run()
        assert seen == ["admit", "close"]


# ---------------------------------------------------------------------------
# Batcher
# ---------------------------------------------------------------------------
class TestBatcher:
    def run_batcher(self, arrivals, max_batch=4, timeout_ms=10.0,
                    capacity=64):
        """Feed timed arrivals through a batcher; return closed batches."""
        engine = Engine()
        queue = AdmissionQueue(engine, capacity=capacity)
        batcher = RequestBatcher(engine, queue, max_batch=max_batch,
                                 timeout_ms=timeout_ms)
        batches = []

        def feed():
            for rid, t in enumerate(arrivals):
                if engine.now < t:
                    yield engine.timeout(t - engine.now)
                queue.offer(Request(rid=rid, arrival_ms=engine.now))
            queue.close()

        def drain():
            while True:
                batch = yield from batcher.form()
                if batch is None:
                    return
                batches.append(batch)

        engine.process(feed())
        engine.process(drain())
        engine.run()
        return batches

    def test_full_batch_closes_without_waiting_out_the_window(self):
        batches = self.run_batcher([0.0, 0.0, 0.0, 0.0], max_batch=4)
        assert [b.reason for b in batches] == ["full"]
        assert batches[0].closed_ms == 0.0

    def test_timeout_closes_partial_batch(self):
        batches = self.run_batcher([0.0, 100.0], max_batch=4,
                                   timeout_ms=10.0)
        assert [b.reason for b in batches] == ["timeout", "drain"]
        assert batches[0].closed_ms == pytest.approx(10.0)
        assert len(batches[0]) == 1

    def test_drain_flushes_remainder_on_close(self):
        batches = self.run_batcher([0.0, 1.0], max_batch=8,
                                   timeout_ms=50.0)
        assert [b.reason for b in batches] == ["drain"]
        assert len(batches[0]) == 2

    def test_requests_stamped_with_batch_and_dispatch(self):
        batches = self.run_batcher([0.0, 0.0, 5.0], max_batch=2)
        ids = [(r.rid, r.batch_id) for b in batches for r in b.requests]
        assert ids == [(0, 0), (1, 0), (2, 1)]
        for batch in batches:
            for request in batch.requests:
                assert request.dispatched_ms == batch.closed_ms

    def test_validation(self):
        engine = Engine()
        queue = AdmissionQueue(engine, capacity=4)
        with pytest.raises(ValueError):
            RequestBatcher(engine, queue, max_batch=0, timeout_ms=1.0)
        with pytest.raises(ValueError):
            RequestBatcher(engine, queue, max_batch=1, timeout_ms=-1.0)


# ---------------------------------------------------------------------------
# SLO targets
# ---------------------------------------------------------------------------
class TestSLO:
    def test_met_by(self):
        slo = SLOTarget(p99_ms=100.0)
        assert slo.met_by(99.9) and slo.met_by(100.0)
        assert not slo.met_by(100.1)

    def test_satisfied_needs_both_sides(self):
        from repro.metrics.latency import LatencySummary

        slo = SLOTarget(p99_ms=100.0, goodput_rps=10.0)
        fast = LatencySummary.from_samples([50.0] * 10)
        assert slo.satisfied(fast, goodput_rps=12.0)
        assert not slo.satisfied(fast, goodput_rps=8.0)
        slow = LatencySummary.from_samples([150.0] * 10)
        assert not slo.satisfied(slow, goodput_rps=12.0)
        assert not slo.satisfied(None, goodput_rps=12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOTarget(p99_ms=0.0)
        with pytest.raises(ValueError):
            SLOTarget(p99_ms=10.0, goodput_rps=-1.0)


# ---------------------------------------------------------------------------
# run_serving end to end
# ---------------------------------------------------------------------------
def serve_spec(ctx, rate=40.0, horizon=1_500.0, **overrides):
    gpu = ctx.machine.gpu(0).name
    defaults = dict(max_batch=4, batch_timeout_ms=5.0,
                    queue_capacity=32, shed_policy="drop-newest",
                    slo=SLOTarget(p99_ms=300.0))
    defaults.update(overrides)
    return ServedModelSpec(
        job=JobHandle(name="serve", model=get_model("MobileNetV2"),
                      batch=defaults["max_batch"], training=False,
                      priority=PRIORITY_HIGH, preferred_device=gpu),
        trace=make_trace(ctx.rng, "serve", "poisson", rate, horizon),
        **defaults)


def background_spec(ctx):
    return JobSpec(
        job=JobHandle(name="train", model=get_model("ResNet50"),
                      batch=16, training=True, priority=PRIORITY_LOW,
                      preferred_device=ctx.machine.gpu(0).name),
        iterations=100_000, background=True)


class TestRunServing:
    def test_every_request_terminates_exactly_once(self):
        ctx = make_context(v100_server, 2, seed=0)
        result = run_serving(ctx, SwitchFlowPolicy, [serve_spec(ctx)],
                             [background_spec(ctx)])
        stream = result.served("serve")
        assert stream.arrived > 0
        assert stream.completed + stream.shed == stream.arrived
        for request in stream.requests:
            terminal = [request.completed_ms is not None,
                        request.shed_reason is not None]
            assert terminal.count(True) == 1

    def test_goodput_counts_only_slo_meeting_completions(self):
        ctx = make_context(v100_server, 2, seed=0)
        result = run_serving(ctx, SwitchFlowPolicy,
                             [serve_spec(ctx, slo=SLOTarget(p99_ms=1.0))])
        stream = result.served("serve")
        # A 1 ms budget is unmeetable (service alone takes longer).
        assert stream.completed > 0
        assert stream.slo_met == 0
        assert stream.goodput_rps == 0.0

    def test_tiny_queue_sheds_under_pressure(self):
        ctx = make_context(v100_server, 2, seed=0)
        result = run_serving(
            ctx, SessionTimeSlicing,
            [serve_spec(ctx, rate=120.0, queue_capacity=2,
                        max_batch=2)],
            [background_spec(ctx)])
        stream = result.served("serve")
        assert stream.shed > 0
        assert stream.shed_by_reason.get("queue-full", 0) > 0

    def test_fused_policy_dispatches(self):
        # Time slicing runs cpu+gpu atomically inside the slice; the
        # front-end must honor fused_sessions rather than deadlock.
        ctx = make_context(v100_server, 2, seed=1)
        result = run_serving(ctx, SessionTimeSlicing,
                             [serve_spec(ctx, rate=20.0)],
                             [background_spec(ctx)])
        assert result.served("serve").completed > 0

    def test_solo_frontend_needs_no_background(self):
        ctx = make_context(v100_server, 1, seed=0)
        result = run_serving(ctx, MultiThreadedTF,
                             [serve_spec(ctx, rate=20.0,
                                         horizon=800.0)])
        stream = result.served("serve")
        assert stream.completed == stream.arrived > 0

    def test_empty_served_rejected(self):
        ctx = make_context(v100_server, 1, seed=0)
        with pytest.raises(ValueError):
            run_serving(ctx, MultiThreadedTF, [])

    def test_env_overrides_apply(self):
        # The serving run option (runner --serving) reaches run_serving.
        options = RunOptions.parse(serving="queue=2,shed=drop-oldest,batch=2")
        with use_options(options):
            ctx = make_context(v100_server, 2, seed=0)
            result = run_serving(
                ctx, SessionTimeSlicing,
                [serve_spec(ctx, rate=120.0)],
                [background_spec(ctx)])
        assert ctx.serving is options.serving
        stream = result.served("serve")
        # drop-oldest evictions only happen with the override applied.
        assert stream.shed_by_reason.get("evicted", 0) > 0
        assert all(len(b) <= 2 for b in stream.batches)

    def test_make_context_serving_config(self):
        config = ServingConfig(max_batch=2)
        ctx = make_context(v100_server, 1, seed=0, serving=config)
        assert ctx.serving is config
        with pytest.raises(RuntimeError):
            ctx.attach_serving(ServingConfig())

    def test_audit_decisions_emitted(self):
        ctx = make_context(v100_server, 2, seed=0)
        run_serving(ctx, SwitchFlowPolicy, [serve_spec(ctx)],
                    [background_spec(ctx)])
        kinds = {r.get("kind") for r in ctx.runlog.records
                 if r.get("event") == "sched_decision"}
        assert {"request_admit", "batch_close"} <= kinds


class TestServingFailurePaths:
    def test_horizon_guard_raises_and_dumps_one_flight_record(
            self, tmp_path):
        with use_options(RunOptions(out=tmp_path)):
            ctx = make_context(v100_server, 2, seed=0)
            with pytest.raises(RuntimeError):
                run_serving(ctx, SwitchFlowPolicy, [serve_spec(ctx)],
                            [background_spec(ctx)], horizon_ms=50.0)
        assert len(list((tmp_path / "flight").iterdir())) == 1

    def test_crash_of_the_served_job_aborts_its_requests(self):
        from repro.analysis.sanitizer import sanitize_run
        from repro.faults import FaultPlan

        plan = FaultPlan.from_dict({"faults": [
            {"kind": "job_crash", "trigger": {"at_ms": 400.0},
             "job": "serve"}]})
        ctx = make_context(v100_server, 2, seed=0, fault_plan=plan)
        result = run_serving(ctx, SwitchFlowPolicy, [serve_spec(ctx)],
                             [background_spec(ctx)])
        stream = result.served("serve")
        assert stream.crashed
        assert "serve" in result.crashed_jobs()
        assert stream.completed > 0
        assert stream.shed_by_reason.get("aborted", 0) > 0
        for request in stream.requests:
            terminal = [request.completed_ms is not None,
                        request.shed_reason is not None]
            assert terminal.count(True) == 1
        assert sanitize_run(ctx).by_check("request-span") == []
