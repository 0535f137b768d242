"""Span storage: lazily seeded jitter streams, interned span metadata,
slotted spans, and the bytes a recorded span keeps alive."""

import copy
import importlib.util
import math
import pickle
import random
import sys
from pathlib import Path

import pytest

from repro.models import get_model
from repro.runtime import Session
from repro.sim import Span, Tracer
from repro.sim.rng import JitterStream

from tests.test_runtime_executor_session import _run_iteration

_spec = importlib.util.spec_from_file_location(
    "bench_core",
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_core.py")
bench_core = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_core", bench_core)
_spec.loader.exec_module(bench_core)


class TestLazyJitterStream:
    def test_draws_match_an_eagerly_seeded_reference(self):
        seed, sigma = 2**63 + 11, 0.05
        stream = JitterStream(seed, sigma)
        assert stream._rng is None
        # Refills grow 8 -> 32 -> 128 -> 256, then stay at 256: draw
        # across every boundary and well into the steady batch size.
        count = 8 + 32 + 128 + 256 + 300
        drawn = [stream.next() for _ in range(count)]
        assert stream._rng is not None
        reference = random.Random(seed)
        expected = [math.exp(sigma * reference.gauss(0.0, 1.0))
                    for _ in range(count)]
        assert drawn == expected

    def test_replica_that_never_runs_seeds_no_stream(self, two_v100_ctx):
        ctx = two_v100_ctx
        session = Session(
            machine=ctx.machine, model=get_model("ResNet50"), batch=8,
            training=True, job="job", rendezvous=ctx.rendezvous,
            resources=ctx.resources, rng=ctx.rng)
        ran, idle = (gpu.name for gpu in ctx.machine.gpus)
        assert _run_iteration(ctx, session, device=ran) == "completed"
        used = session.versions[ran]._node_jitter.values()
        assert any(stream._rng is not None for stream in used)
        unused = session.versions[idle]._node_jitter.values()
        assert unused
        assert all(stream._rng is None for stream in unused)


def _closed(tracer, lane="cpu:host", name="op", **meta):
    return tracer.begin(lane, name, **meta).close()


class TestInternedMeta:
    def test_equal_metas_share_one_dict(self, engine):
        tracer = Tracer(engine)
        first = _closed(tracer, context="job", stream=0, occupancy=0.5)
        second = _closed(tracer, name="other", context="job", stream=0,
                         occupancy=0.5)
        tracer.instant("cpu:host", "mark", context="job", stream=0,
                       occupancy=0.5)
        assert first.meta is second.meta is tracer.spans[-1].meta
        assert _closed(tracer, context="job2").meta is not first.meta

    @pytest.mark.parametrize("record", ["begin", "instant"])
    def test_equal_but_different_values_stay_apart(self, engine, record):
        tracer = Tracer(engine)
        values = [1, 1.0, True, 0.0, -0.0, 0, False, 1, 0.0]
        for value in values:
            if record == "begin":
                _closed(tracer, o=value)
            else:
                tracer.instant("cpu:host", "op", o=value)
        spans = tracer.spans
        for span, value in zip(spans, values, strict=True):
            got = span.meta["o"]
            assert type(got) is type(value)
            assert repr(got) == repr(value)
        # Repeats of one value still share.
        assert spans[0].meta is spans[7].meta
        assert spans[3].meta is spans[8].meta
        assert spans[4].meta is not spans[3].meta

    def test_key_order_is_kept(self, engine):
        tracer = Tracer(engine)
        first = _closed(tracer, a=1, b=2)
        second = _closed(tracer, b=2, a=1)
        assert list(first.meta) == ["a", "b"]
        assert list(second.meta) == ["b", "a"]

    def test_close_extra_leaves_the_shared_dict_untouched(self, engine):
        tracer = Tracer(engine)
        plain = _closed(tracer, context="job")
        extended = tracer.begin("cpu:host", "op", context="job").close(
            outcome="aborted")
        assert plain.meta == {"context": "job"}
        assert extended.meta == {"context": "job", "outcome": "aborted"}
        assert _closed(tracer, context="job").meta is plain.meta
        again = tracer.begin("cpu:host", "op", context="job").close(
            outcome="aborted")
        assert again.meta is extended.meta

    def test_unhashable_value_still_records(self, engine):
        tracer = Tracer(engine)
        first = _closed(tracer, deps=[1, 2])
        second = _closed(tracer, deps=[1, 2])
        assert first.meta == second.meta == {"deps": [1, 2]}
        assert first.meta is not second.meta


class TestSlottedSpan:
    def test_span_has_no_instance_dict(self):
        span = Span("gpu", "k", 0.0, 1.0, {"context": "a"})
        assert not hasattr(span, "__dict__")
        with pytest.raises(AttributeError):
            span.lane = "cpu"

    @pytest.mark.parametrize("clone", [
        lambda span: pickle.loads(pickle.dumps(span)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_round_trip(self, clone):
        span = Span("gpu", "k", 0.5, 2.0, {"context": "a", "o": -0.0})
        back = clone(span)
        assert back == span
        assert back.duration == span.duration
        assert math.copysign(1.0, back.meta["o"]) == -1.0

    def test_default_meta_is_per_span(self):
        assert Span("a", "x", 0, 1).meta == {}
        assert Span("a", "x", 0, 1).meta is not Span("a", "y", 0, 1).meta


#: The bound on what one CPU-op span keeps alive: the slotted span, its
#: end time and its slot in the trace list. A span holding its own meta
#: dict and ``__dict__`` kept about 330 B.
_MAX_BYTES_PER_SPAN = 200


def test_retained_bytes_per_span_stay_bounded():
    """A CPU-op span keeps no meta or label of its own alive."""
    retained = bench_core.trace_retained_bytes_per_span(10_000)
    assert 0 < retained < _MAX_BYTES_PER_SPAN
