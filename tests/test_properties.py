"""Hypothesis property tests on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.graph import Graph, OpDef, OpKind, gpu_kernel_cost
from repro.hw import MemoryPool, OutOfMemoryError, TESLA_V100
from repro.metrics import percentile
from repro.sim import Engine, Span, Store, Tracer
from repro.sim.rng import derive_seed


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_sample_range(samples, pct):
    value = percentile(samples, pct)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1))
def test_percentile_monotone_in_pct(samples):
    points = [percentile(samples, p) for p in (0, 25, 50, 75, 95, 100)]
    assert points == sorted(points)


# ---------------------------------------------------------------------------
# Memory allocator
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.sampled_from("abc"),
                          st.integers(min_value=0, max_value=400)),
                max_size=40))
def test_memory_pool_conservation(operations):
    pool = MemoryPool("gpu", 1000)
    live = []
    for owner, nbytes in operations:
        try:
            live.append(pool.allocate(owner, "t", nbytes))
        except OutOfMemoryError:
            if live:
                pool.free(live.pop(0))
    assert pool.used_bytes == sum(r.nbytes for r in live)
    assert 0 <= pool.used_bytes <= pool.capacity_bytes
    assert pool.high_water_mark <= pool.capacity_bytes
    for record in live:
        pool.free(record)
    assert pool.used_bytes == 0


# ---------------------------------------------------------------------------
# Store FIFO
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(), min_size=1, max_size=50))
def test_store_preserves_fifo_order(items):
    engine = Engine()
    store = Store(engine)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))  # noqa: PERF401

    engine.process(producer(engine))
    engine.process(consumer(engine))
    engine.run()
    assert received == items


# ---------------------------------------------------------------------------
# Tracer busy time
# ---------------------------------------------------------------------------
interval = st.tuples(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
).map(lambda pair: (pair[0], pair[0] + pair[1]))


@given(st.lists(interval, max_size=30))
def test_busy_time_bounded_by_span_sum_and_window(intervals):
    engine = Engine()
    tracer = Tracer(engine)
    for start, end in intervals:
        tracer.record(Span("lane", "x", start, end))
    busy = tracer.busy_union(["lane"], 0.0, 1100.0)
    total = sum(end - start for start, end in intervals)
    assert 0.0 <= busy <= total + 1e-6
    assert busy <= 1100.0
    if intervals:
        longest = max(end - start for start, end in intervals)
        assert busy >= longest - 1e-6


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.lists(st.integers(min_value=0, max_value=19),
                         max_size=3), min_size=1, max_size=20))
def test_layered_graph_topological_order_is_consistent(edge_choices):
    """Random DAGs built by only wiring to earlier nodes stay acyclic."""
    graph = Graph("random")
    nodes = []
    for index, parents in enumerate(edge_choices):
        inputs = [nodes[p % len(nodes)] for p in parents] if nodes else []
        nodes.append(graph.add_node(
            OpDef(name=f"n{index}", kind=OpKind.ELEMENTWISE),
            inputs=inputs))
    order = graph.topological_order()
    assert len(order) == len(nodes)
    position = {node.node_id: i for i, node in enumerate(order)}
    for node in graph:
        for successor in graph.successors(node):
            assert position[node.node_id] < position[successor.node_id]


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------
@given(st.floats(min_value=0, max_value=1e13, allow_nan=False),
       st.integers(min_value=0, max_value=10 ** 9))
def test_gpu_cost_is_positive_and_monotone_in_flops(flops, nbytes):
    op_small = OpDef(name="a", kind=OpKind.MATMUL, flops=flops,
                     input_bytes=nbytes)
    op_large = OpDef(name="b", kind=OpKind.MATMUL, flops=flops * 2,
                     input_bytes=nbytes)
    cost_small = gpu_kernel_cost(op_small, TESLA_V100)
    cost_large = gpu_kernel_cost(op_large, TESLA_V100)
    assert cost_small.work_ms > 0
    assert cost_large.work_ms >= cost_small.work_ms
    assert 0 < cost_small.occupancy <= 1.0


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2 ** 32), st.text(max_size=30))
def test_derive_seed_stable_and_bounded(root, name):
    first = derive_seed(root, name)
    assert first == derive_seed(root, name)
    assert 0 <= first < 2 ** 64


# ---------------------------------------------------------------------------
# Engine: event ordering under random timeouts
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False),
                min_size=1, max_size=30))
@settings(max_examples=50)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        engine.process(waiter(engine, delay))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert math.isclose(engine.now, max(delays))
