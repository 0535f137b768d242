"""Tests for the graph IR: ops, graph structure, passes."""

import pytest

from repro.graph import (
    Graph,
    GraphError,
    OpDef,
    OpKind,
    ancestors_of,
    count_kinds,
    fuse_elementwise,
    gpu_efficiency,
    prune_dead_nodes,
)


def op(name, kind=OpKind.ELEMENTWISE, **kwargs):
    return OpDef(name=name, kind=kind, **kwargs)


class TestOpDef:
    def test_validation(self):
        with pytest.raises(ValueError):
            OpDef(name="x", kind=OpKind.CONV2D, flops=-1)
        with pytest.raises(ValueError):
            OpDef(name="x", kind=OpKind.CONV2D, input_bytes=-1)
        with pytest.raises(ValueError):
            OpDef(name="x", kind=OpKind.CONV2D, preferred_device="tpu")

    def test_register_bound_kinds(self):
        assert OpDef(name="c", kind=OpKind.CONV2D).is_register_bound
        assert not OpDef(name="r", kind=OpKind.ELEMENTWISE).is_register_bound

    def test_scaled_preserves_kind_and_scales_costs(self):
        base = OpDef(name="c", kind=OpKind.CONV2D, flops=100,
                     input_bytes=10, output_bytes=20)
        double = base.scaled(2.0)
        assert double.flops == 200
        assert double.input_bytes == 20
        assert double.kind is OpKind.CONV2D
        assert base.flops == 100  # immutable original

    def test_gradient_op_doubles_math(self):
        forward = OpDef(name="c", kind=OpKind.CONV2D, flops=100,
                        params_bytes=40, attrs={"k": 3})
        grad = forward.gradient_op()
        assert grad.kind is OpKind.GRADIENT
        assert grad.flops == 200
        assert grad.attrs["forward_kind"] == "conv2d"
        assert grad.params_bytes == 40

    def test_winograd_boosts_3x3_conv_efficiency(self):
        conv3 = OpDef(name="a", kind=OpKind.CONV2D, attrs={"k": 3})
        conv1 = OpDef(name="b", kind=OpKind.CONV2D, attrs={"k": 1})
        assert gpu_efficiency(conv3) > gpu_efficiency(conv1)

    def test_winograd_applies_to_conv_gradients(self):
        grad3 = OpDef(name="a", kind=OpKind.CONV2D,
                      attrs={"k": 3}).gradient_op()
        grad1 = OpDef(name="b", kind=OpKind.CONV2D,
                      attrs={"k": 1}).gradient_op()
        assert gpu_efficiency(grad3) > gpu_efficiency(grad1)


class TestGraph:
    def test_add_nodes_and_edges(self):
        graph = Graph("g")
        a = graph.add_node(op("a"))
        b = graph.add_node(op("b"), inputs=[a])
        assert graph.successors(a) == [b]
        assert graph.predecessors(b) == [a]
        assert graph.sources() == [a]
        assert graph.sinks() == [b]

    def test_duplicate_edges_collapse(self):
        graph = Graph("g")
        a = graph.add_node(op("a"))
        b = graph.add_node(op("b"), inputs=[a])
        graph.add_edge(a, b)
        assert graph.successors(a) == [b]

    def test_topological_order_respects_edges(self):
        graph = Graph("g")
        a = graph.add_node(op("a"))
        b = graph.add_node(op("b"), inputs=[a])
        c = graph.add_node(op("c"), inputs=[a])
        d = graph.add_node(op("d"), inputs=[b, c])
        order = graph.topological_order()
        position = {n: i for i, n in enumerate(order)}
        assert position[a] < position[b] < position[d]
        assert position[a] < position[c] < position[d]

    def test_cycle_detected(self):
        graph = Graph("g")
        a = graph.add_node(op("a"))
        b = graph.add_node(op("b"), inputs=[a])
        graph.add_edge(b, a)
        with pytest.raises(GraphError):
            graph.topological_order()

    def test_remove_node_detaches_edges(self):
        graph = Graph("g")
        a = graph.add_node(op("a"))
        b = graph.add_node(op("b"), inputs=[a])
        c = graph.add_node(op("c"), inputs=[b])
        graph.remove_node(b)
        assert graph.successors(a) == []
        assert graph.predecessors(c) == []
        assert len(graph) == 2

    def test_find_by_name(self):
        graph = Graph("g")
        graph.add_node(op("target"))
        assert graph.find("target").name == "target"
        with pytest.raises(KeyError):
            graph.find("missing")

    def test_subgraph_shares_nodes_but_not_edges(self):
        graph = Graph("g")
        a = graph.add_node(op("a"))
        b = graph.add_node(op("b"), inputs=[a])
        c = graph.add_node(op("c"), inputs=[b])
        sub = graph.subgraph([a, b])
        assert len(sub) == 2
        assert sub.successors(a) == [b]
        assert sub.successors(b) == []       # edge to c not in subgraph
        assert graph.successors(b) == [c]    # parent untouched


class TestPasses:
    def _diamond(self):
        graph = Graph("g")
        a = graph.add_node(op("a", OpKind.CONV2D))
        b = graph.add_node(op("b", OpKind.CONV2D), inputs=[a])
        dead = graph.add_node(op("dead", OpKind.CONV2D), inputs=[a])
        return graph, a, b, dead

    def test_ancestors_of(self):
        graph, a, b, dead = self._diamond()
        keep = ancestors_of(graph, [b])
        assert keep == {a, b}

    def test_prune_dead_nodes(self):
        graph, a, b, dead = self._diamond()
        removed = prune_dead_nodes(graph, [b])
        assert removed == 1
        assert dead not in graph

    def test_fuse_elementwise_chain(self):
        graph = Graph("g")
        conv = graph.add_node(op("conv", OpKind.CONV2D, flops=100,
                                 output_bytes=10))
        bias = graph.add_node(op("bias", OpKind.ELEMENTWISE, flops=5,
                                 output_bytes=10), inputs=[conv])
        relu = graph.add_node(op("relu", OpKind.ELEMENTWISE, flops=5,
                                 output_bytes=10), inputs=[bias])
        tail = graph.add_node(op("next", OpKind.CONV2D), inputs=[relu])
        fused = fuse_elementwise(graph)
        assert fused == 2
        assert len(graph) == 2
        assert graph.find("conv").op.flops == 110
        assert graph.successors(graph.find("conv")) == [tail]

    def test_fuse_skips_multi_consumer_producer(self):
        graph = Graph("g")
        conv = graph.add_node(op("conv", OpKind.CONV2D))
        graph.add_node(op("relu", OpKind.ELEMENTWISE), inputs=[conv])
        graph.add_node(op("other", OpKind.CONV2D), inputs=[conv])
        assert fuse_elementwise(graph) == 0

    def test_count_kinds(self):
        graph, *_ = self._diamond()
        assert count_kinds(graph) == {OpKind.CONV2D: 3}
