"""Tests for the schedule sanitizer: crafted bad traces must produce
exactly the expected findings, and genuine runs must come back clean."""

import pytest

from repro.analysis.sanitizer import (
    SanitizerConfig,
    open_span_findings,
    sanitize_run,
    sanitize_trace,
)
from repro.analysis.findings import Severity
from repro.baselines import MultiThreadedTF
from repro.core import JobHandle, PRIORITY_HIGH, PRIORITY_LOW, make_context
from repro.core.switchflow import SwitchFlowPolicy
from repro.hw import v100_server
from repro.models import get_model
from repro.sim.trace import Span
from repro.workloads import JobSpec, run_colocation

LANE = "gpu:gpu0"


def gpu_span(name, start, end, context, lane=LANE, **meta):
    meta.setdefault("context", context)
    return Span(lane, name, start, end, meta)


class TestMutualExclusion:
    def test_overlapping_cross_job_spans_are_an_error(self):
        spans = [
            gpu_span("conv_a", 0.0, 10.0, "job_a"),
            gpu_span("conv_b", 5.0, 15.0, "job_b"),
        ]
        report = sanitize_trace(spans)
        findings = report.by_check("mutual-exclusion")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity is Severity.ERROR
        assert finding.where == LANE
        assert finding.meta["jobs"] == ["job_a", "job_b"]
        assert finding.t_start == pytest.approx(5.0)

    def test_same_job_overlap_is_fine(self):
        # Multi-stream execution within one job is legal.
        spans = [
            gpu_span("k1", 0.0, 10.0, "job_a", stream=0),
            gpu_span("k2", 5.0, 15.0, "job_a", stream=1),
        ]
        assert not sanitize_trace(spans).by_check("mutual-exclusion")

    def test_back_to_back_spans_are_fine(self):
        spans = [
            gpu_span("k1", 0.0, 10.0, "job_a"),
            gpu_span("k2", 10.0, 20.0, "job_b"),
        ]
        assert not sanitize_trace(spans).by_check("mutual-exclusion")

    def test_non_gpu_lanes_are_ignored(self):
        spans = [
            gpu_span("stage_a", 0.0, 10.0, "job_a", lane="cpu:host-cpu"),
            gpu_span("stage_b", 5.0, 15.0, "job_b", lane="cpu:host-cpu"),
        ]
        assert not sanitize_trace(spans).by_check("mutual-exclusion")

    def test_sharing_policies_waive_the_check(self):
        spans = [
            gpu_span("conv_a", 0.0, 10.0, "job_a"),
            gpu_span("conv_b", 5.0, 15.0, "job_b"),
        ]
        config = SanitizerConfig(exclusive_gpu=False)
        assert not sanitize_trace(spans, config=config).findings

    def test_overflow_is_budgeted_and_summarized(self):
        spans = []
        for i in range(30):
            spans.append(gpu_span(f"a{i}", i * 10.0, i * 10.0 + 8.0, "a"))
            spans.append(gpu_span(f"b{i}", i * 10.0 + 4.0,
                                  i * 10.0 + 9.0, "b"))
        config = SanitizerConfig(max_reports_per_check=5)
        report = sanitize_trace(spans, config=config)
        errors = [f for f in report.by_check("mutual-exclusion")
                  if f.severity is Severity.ERROR]
        summaries = [f for f in report.by_check("mutual-exclusion")
                     if f.severity is Severity.INFO]
        assert len(errors) == 5
        assert len(summaries) == 1
        assert "suppressed" in summaries[0].message


def preemption_records(victim="bg", device="gpu0", target="gpu1",
                       t_preempt=10.0, t_abort=12.0):
    return [
        {"event": "preempt", "victim": victim, "from_device": device,
         "to_device": target, "t_ms": t_preempt},
        {"event": "abort_complete", "victim": victim,
         "drain_ms": t_abort - t_preempt, "t_ms": t_abort},
    ]


class TestPreemptionSafety:
    def test_victim_running_after_abort_is_an_error(self):
        spans = [gpu_span("conv_bg", 15.0, 20.0, "bg")]
        report = sanitize_trace(spans, records=preemption_records())
        findings = report.by_check("preemption-safety")
        assert len(findings) == 1
        assert findings[0].severity is Severity.ERROR
        assert "after its abort completed" in findings[0].message

    def test_victim_starting_inside_abort_window_is_an_error(self):
        spans = [gpu_span("conv_bg", 11.0, 11.5, "bg")]
        report = sanitize_trace(spans, records=preemption_records())
        findings = report.by_check("preemption-safety")
        assert len(findings) == 1
        assert "inside the abort window" in findings[0].message

    def test_inflight_kernels_may_drain(self):
        # Dispatched before the preemption decision; ends inside the
        # abort window — exactly the drain the paper describes.
        spans = [gpu_span("conv_bg", 8.0, 11.5, "bg")]
        report = sanitize_trace(spans, records=preemption_records())
        assert not report.by_check("preemption-safety")

    def test_reassignment_back_legitimizes_later_spans(self):
        records = preemption_records()
        # A later scheduling decision sends the victim back to gpu0.
        records += [
            {"event": "preempt", "victim": "fg", "from_device": "gpu1",
             "to_device": "gpu0", "t_ms": 20.0},
            {"event": "abort_complete", "victim": "fg", "t_ms": 21.0},
        ]
        # Rewrite so it is *bg* being sent back to gpu0:
        records[2] = {"event": "preempt", "victim": "bg",
                      "from_device": "gpu1", "to_device": "gpu0",
                      "t_ms": 20.0}
        records[3] = {"event": "abort_complete", "victim": "bg",
                      "t_ms": 21.0}
        spans = [gpu_span("conv_bg", 25.0, 30.0, "bg")]
        report = sanitize_trace(spans, records=records)
        assert not report.by_check("preemption-safety")

    def test_other_jobs_on_the_device_are_unaffected(self):
        spans = [gpu_span("conv_fg", 15.0, 20.0, "fg")]
        report = sanitize_trace(spans, records=preemption_records())
        assert not report.by_check("preemption-safety")


class TestMigrationCriticalPath:
    def _records(self, preemptor_start):
        records = preemption_records()
        records += [
            {"event": "state_transfer_start", "job": "bg", "src": "gpu0",
             "dst": "gpu1", "t_ms": 12.0},
            {"event": "state_transfer_done", "job": "bg", "src": "gpu0",
             "dst": "gpu1", "t_ms": 40.0},
        ]
        spans = [gpu_span("conv_fg", preemptor_start,
                          preemptor_start + 5.0, "fg")]
        return spans, records

    def test_preemptor_waiting_for_transfer_warns(self):
        spans, records = self._records(preemptor_start=45.0)
        report = sanitize_trace(spans, records=records)
        findings = report.by_check("migration-critical-path")
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING

    def test_overlapped_transfer_is_clean(self):
        spans, records = self._records(preemptor_start=14.0)
        report = sanitize_trace(spans, records=records)
        assert not report.by_check("migration-critical-path")


class TestTraceHygiene:
    def test_span_closing_before_opening_is_an_error(self):
        spans = [gpu_span("backwards", 10.0, 4.0, "job_a")]
        report = sanitize_trace(spans)
        findings = report.by_check("span-wellformed")
        assert len(findings) == 1
        assert "closes before it opens" in findings[0].message

    def test_clock_going_backwards_is_an_error(self):
        records = [
            {"event": "a", "t_ms": 5.0},
            {"event": "b", "t_ms": 3.0},
        ]
        report = sanitize_trace([], records=records)
        findings = report.by_check("clock-monotonic")
        assert len(findings) == 1
        assert "before the preceding" in findings[0].message

    def test_memory_over_capacity_is_an_error(self):
        report = sanitize_trace([], memory_peaks={"gpu0": (200, 100)})
        findings = report.by_check("memory-ceiling")
        assert len(findings) == 1
        assert findings[0].meta["over_bytes"] == 100

    def test_memory_at_capacity_is_fine(self):
        report = sanitize_trace([], memory_peaks={"gpu0": (100, 100)})
        assert not report.findings

    def test_open_span_findings_report_the_leak(self, engine):
        from repro.sim.trace import Tracer

        tracer = Tracer(engine)
        tracer.begin("gpu:gpu0", "stuck_kernel")
        findings = open_span_findings(tracer)
        assert len(findings) == 1
        assert findings[0].check == "span-leak"
        assert findings[0].severity is Severity.ERROR
        assert "stuck_kernel" in findings[0].message
        assert findings[0].where == "gpu:gpu0"


class TestSanitizeRun:
    def _run(self, policy_factory, jobs):
        ctx = make_context(v100_server, 2, seed=11)
        gpu = ctx.machine.gpu(0).name
        specs = [
            JobSpec(job=JobHandle(name=name,
                                  model=get_model("MobileNetV2"),
                                  batch=8, training=training,
                                  priority=priority,
                                  preferred_device=gpu),
                    iterations=iterations,
                    start_delay_ms=delay)
            for name, training, priority, iterations, delay in jobs]
        policy_holder = {}

        def factory(ctx):
            policy_holder["policy"] = policy_factory(ctx)
            return policy_holder["policy"]

        run_colocation(ctx, factory, specs)
        return ctx, policy_holder["policy"]

    def test_clean_switchflow_run_has_zero_errors(self):
        ctx, policy = self._run(SwitchFlowPolicy, [
            ("bg", True, PRIORITY_LOW, 4, 0.0),
            ("fg", False, PRIORITY_HIGH, 3, 30.0),
        ])
        report = sanitize_run(ctx, policy=policy)
        assert not report.has_errors, report.render()

    def test_sharing_baseline_waives_exclusion_but_checks_the_rest(self):
        ctx, policy = self._run(MultiThreadedTF, [
            ("a", True, PRIORITY_LOW, 3, 0.0),
            ("b", True, PRIORITY_LOW, 3, 0.0),
        ])
        report = sanitize_run(ctx, policy=policy)
        # MultiThreadedTF co-schedules kernels by design: the run must
        # stay clean because the exclusion check is waived, not because
        # kernels never overlapped.
        assert not report.has_errors, report.render()

    def test_inflight_spans_at_run_end_are_narrated_not_flagged(self):
        # The harness stops the engine the instant the measured
        # processes finish, stranding in-flight pipeline work (e.g. the
        # preemption experiment strands preprocess chunks that close
        # within ~10ms of extra drain). sanitize_run narrates those as
        # INFO; strict closure belongs to Tracer.assert_all_closed.
        ctx, policy = self._run(SwitchFlowPolicy, [
            ("bg", True, PRIORITY_LOW, 4, 0.0),
            ("fg", False, PRIORITY_HIGH, 3, 30.0),
        ])
        ctx.tracer.begin("cpu:test", "stranded_chunk", context="bg")
        report = sanitize_run(ctx, policy=policy)
        assert not report.has_errors, report.render()
        inflight = [f for f in report.findings if f.check == "span-inflight"]
        assert len(inflight) == 1
        assert "stranded_chunk" in inflight[0].message

    def test_corrupted_real_trace_is_caught(self):
        # Even the sharing baseline serializes at kernel granularity in
        # the hardware model (Figure 2), so a clean run never trips the
        # check. Stretch one job's kernel over another's to prove the
        # check catches violations in full-size realistic traces too.
        ctx, policy = self._run(SwitchFlowPolicy, [
            ("bg", True, PRIORITY_LOW, 4, 0.0),
            ("fg", False, PRIORITY_HIGH, 3, 30.0),
        ])
        lane = next(s.lane for s in ctx.tracer.spans
                    if s.lane.startswith("gpu:"))
        others = [s for s in ctx.tracer.spans if s.lane == lane
                  and s.meta.get("context") == "fg" and s.duration > 0]
        victim_span = next(s for s in ctx.tracer.spans if s.lane == lane
                           and s.meta.get("context") == "bg"
                           and s.duration > 0)
        ctx.tracer.spans.append(Span(
            lane, "forged_overlap", victim_span.start,
            victim_span.end, {"context": "fg"}))
        assert others, "expected fg kernels on the contested GPU"
        report = sanitize_run(ctx, policy=policy)
        assert report.by_check("mutual-exclusion")


# ---------------------------------------------------------------------------
# Serving request-span accounting
# ---------------------------------------------------------------------------
def request_records(*events):
    """Build run-log records from (event, req[, t_ms]) shorthand."""
    records = []
    for entry in events:
        event, req = entry[0], entry[1]
        t_ms = entry[2] if len(entry) > 2 else float(len(records))
        records.append({"event": f"request_{event}", "job": "serve",
                        "req": req, "t_ms": t_ms})
    return records


class TestRequestSpans:
    def test_clean_lifecycles_pass(self):
        records = request_records(
            ("arrived", 0), ("arrived", 1), ("completed", 0),
            ("shed", 1))
        report = sanitize_trace([], records=records)
        assert not report.by_check("request-span")

    def test_arrival_without_terminal(self):
        report = sanitize_trace([], records=request_records(
            ("arrived", 0), ("arrived", 1), ("completed", 0)))
        findings = report.by_check("request-span")
        assert len(findings) == 1
        assert "never completed or shed" in findings[0].message

    def test_terminal_without_arrival(self):
        report = sanitize_trace([], records=request_records(
            ("completed", 9),))
        findings = report.by_check("request-span")
        assert len(findings) == 1
        assert "without ever arriving" in findings[0].message

    def test_double_terminal(self):
        report = sanitize_trace([], records=request_records(
            ("arrived", 0), ("completed", 0), ("shed", 0)))
        findings = report.by_check("request-span")
        assert len(findings) == 1
        assert "shed after already being completed" in findings[0].message

    def test_duplicate_arrival(self):
        report = sanitize_trace([], records=request_records(
            ("arrived", 0), ("arrived", 0), ("completed", 0)))
        findings = report.by_check("request-span")
        assert len(findings) == 1
        assert "arrived twice" in findings[0].message

    def test_jobs_keyed_independently(self):
        # The same request id on different jobs must never collide.
        records = request_records(("arrived", 0), ("completed", 0))
        records += [{"event": "request_arrived", "job": "other",
                     "req": 0, "t_ms": 5.0},
                    {"event": "request_shed", "job": "other",
                     "req": 0, "t_ms": 6.0}]
        assert not sanitize_trace([], records=records) \
            .by_check("request-span")

    def test_real_serving_run_is_clean(self):
        from repro.serving import (
            SLOTarget, ServedModelSpec, make_trace, run_serving,
        )

        ctx = make_context(v100_server, 1, seed=0)
        gpu = ctx.machine.gpu(0).name
        spec = ServedModelSpec(
            job=JobHandle(name="serve", model=get_model("MobileNetV2"),
                          batch=4, training=False,
                          priority=PRIORITY_HIGH, preferred_device=gpu),
            trace=make_trace(ctx.rng, "serve", "poisson", 30.0, 900.0),
            max_batch=4, batch_timeout_ms=5.0, queue_capacity=8,
            shed_policy="drop-newest", slo=SLOTarget(p99_ms=400.0))
        run_serving(ctx, MultiThreadedTF, [spec])
        report = sanitize_run(ctx)
        assert not report.by_check("request-span"), report.render()
