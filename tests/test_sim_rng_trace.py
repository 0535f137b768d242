"""Tests for RNG streams and the tracer."""

import pytest

from repro.sim import Engine, RngRegistry, Span, Tracer, derive_seed
from repro.sim.trace import render_ascii_timeline


class TestRng:
    def test_streams_are_independent_of_creation_order(self):
        first = RngRegistry(3)
        a1 = first.stream("a").random()
        b1 = first.stream("b").random()
        second = RngRegistry(3)
        b2 = second.stream("b").random()
        a2 = second.stream("a").random()
        assert a1 == a2 and b1 == b2

    def test_different_seeds_differ(self):
        assert RngRegistry(1).stream("x").random() != \
            RngRegistry(2).stream("x").random()

    def test_derive_seed_is_stable(self):
        assert derive_seed(5, "gpu") == derive_seed(5, "gpu")
        assert derive_seed(5, "gpu") != derive_seed(5, "cpu")

    def test_exponential_validates_mean(self):
        with pytest.raises(ValueError):
            RngRegistry(0).exponential("x", 0.0)


class TestTracer:
    def test_spans_record_open_close(self, engine):
        tracer = Tracer(engine)

        def proc(env):
            span = tracer.begin("lane", "work", tag=1)
            yield env.timeout(5.0)
            span.close()

        engine.process(proc(engine))
        engine.run()
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.duration == 5.0
        assert span.meta["tag"] == 1

    def test_double_close_raises(self, engine):
        tracer = Tracer(engine)
        span = tracer.begin("lane", "x")
        span.close()
        with pytest.raises(RuntimeError):
            span.close()

    def test_disabled_tracer_drops_spans(self, engine):
        tracer = Tracer(engine, enabled=False)
        tracer.begin("lane", "x").close()
        assert tracer.spans == []

    def test_busy_time_unions_overlaps(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("gpu", "a", 0.0, 10.0))
        tracer.record(Span("gpu", "b", 5.0, 15.0))
        tracer.record(Span("gpu", "c", 20.0, 25.0))
        assert tracer.busy_union(["gpu"], 0.0, 30.0) == 20.0

    def test_busy_time_clips_to_window(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("gpu", "a", 0.0, 100.0))
        assert tracer.busy_union(["gpu"], 10.0, 30.0) == 20.0

    def test_lanes_in_first_seen_order(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("z", "a", 0, 1))
        tracer.record(Span("a", "b", 0, 1))
        tracer.record(Span("z", "c", 1, 2))
        assert tracer.lanes() == ["z", "a"]

    def test_render_ascii_timeline(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("gpu0", "k", 0.0, 50.0, {"glyph": "#"}))
        tracer.record(Span("gpu1", "k", 50.0, 100.0, {"glyph": "@"}))
        art = render_ascii_timeline(tracer.spans, width=40)
        assert "gpu0" in art and "gpu1" in art
        assert "#" in art and "@" in art

    def test_render_empty(self, engine):
        assert "empty" in render_ascii_timeline([])


class TestTracerLeaks:
    def test_open_spans_tracked_until_closed(self, engine):
        tracer = Tracer(engine)
        span = tracer.begin("gpu", "kernel")
        assert tracer.open_spans == [span]
        span.close()
        assert tracer.open_spans == []
        tracer.assert_all_closed()

    def test_assert_all_closed_names_the_leak(self, engine):
        tracer = Tracer(engine)
        tracer.begin("gpu0", "stuck_kernel")
        with pytest.raises(RuntimeError, match="gpu0/stuck_kernel"):
            tracer.assert_all_closed()

    def test_span_context_manager_closes(self, engine):
        tracer = Tracer(engine)

        def proc(env):
            with tracer.span("gpu", "work", tag=7):
                yield env.timeout(3.0)

        engine.process(proc(engine))
        engine.run()
        assert tracer.open_spans == []
        assert len(tracer.spans) == 1
        assert tracer.spans[0].duration == 3.0
        assert tracer.spans[0].meta["tag"] == 7

    def test_span_context_manager_closes_on_error(self, engine):
        tracer = Tracer(engine)
        with pytest.raises(ValueError):
            with tracer.span("gpu", "work"):
                raise ValueError("boom")
        tracer.assert_all_closed()
        assert len(tracer.spans) == 1

    def test_explicit_close_inside_span_is_fine(self, engine):
        tracer = Tracer(engine)
        with tracer.span("gpu", "work") as open_span:
            open_span.close(end=5.0)
        assert len(tracer.spans) == 1
        assert tracer.spans[0].end == 5.0


class TestAsciiTimeline:
    def test_header_aligns_with_lane_rows(self, engine):
        tracer = Tracer(engine)
        tracer.record(Span("a-very-long-lane-name", "k", 0.0, 80.0))
        tracer.record(Span("gpu", "k", 10.0, 100.0))
        art = render_ascii_timeline(tracer.spans, width=50)
        lengths = {len(line) for line in art.splitlines()}
        assert len(lengths) == 1

    def test_header_shows_both_endpoints(self, engine):
        art = render_ascii_timeline([Span("gpu", "k", 25.0, 75.0)],
                                    width=60)
        header = art.splitlines()[0]
        assert "25.0 ms" in header and header.rstrip("|").endswith("75.0 ms")

    def test_true_overlap_renders_collision_glyph(self, engine):
        spans = [Span("gpu", "a", 0.0, 60.0, {"glyph": "#"}),
                 Span("gpu", "b", 40.0, 100.0, {"glyph": "@"})]
        art = render_ascii_timeline(spans, width=50)
        assert "*" in art

    def test_adjacent_spans_do_not_collide(self, engine):
        # Back-to-back spans share a boundary cell after rounding but do
        # not overlap in time: no collision glyph.
        spans = [Span("gpu", "a", 0.0, 50.0, {"glyph": "#"}),
                 Span("gpu", "b", 50.0, 100.0, {"glyph": "@"})]
        art = render_ascii_timeline(spans, width=33)
        assert "*" not in art
