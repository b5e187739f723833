"""Unit tests for the built-in rewrite passes and unfuse_activations."""

from __future__ import annotations

import pytest

from repro.ir import Conv2d, GraphBuilder, SeparableConv2d, TensorShape, graph_fingerprint
from repro.frontend import load
from repro.passes import (
    CanonicalizePass,
    CommonSubexpressionPass,
    EliminateDeadPass,
    FuseActivationPass,
    SplitConcatSimplifyPass,
    default_pipeline,
    unfuse_activations,
)

SHAPE = TensorShape(1, 8, 8, 8)


class TestFuseActivation:
    def test_folds_relu_into_preceding_conv(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=3, activation=None)
        b.relu("act", x)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 1
        assert "act" not in graph.nodes
        conv = graph.nodes["conv"]
        assert isinstance(conv, Conv2d) and conv.activation == "relu"
        assert graph.output_names() == ["conv"]

    def test_does_not_fold_when_raw_conv_output_is_observed(self):
        # conv feeds both the relu and a pool: folding would rectify the
        # pool's input, changing its value.
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=3, activation=None)
        b.relu("act", x)
        b.max_pool("pool", x, kernel=2)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 0
        assert graph.nodes["conv"].activation is None
        assert "act" in graph.nodes

    def test_drops_redundant_relu_after_fused_conv(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=3)  # fused relu
        b.relu("act", x)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 1
        assert "act" not in graph.nodes

    def test_folds_relu_into_following_sepconv(self):
        b = GraphBuilder("g", SHAPE)
        x = b.relu("pre", b.input_name)
        b.sep_conv2d("sep", x, out_channels=8, kernel=3, pre_activation=False)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 1
        assert "pre" not in graph.nodes
        sep = graph.nodes["sep"]
        assert isinstance(sep, SeparableConv2d) and sep.pre_activation
        assert sep.inputs == ("input",)

    def test_keeps_shared_relu_feeding_sepconv(self):
        # The relu's value is also consumed elsewhere: it must survive.
        b = GraphBuilder("g", SHAPE)
        x = b.relu("pre", b.input_name)
        b.sep_conv2d("sep", x, out_channels=8, kernel=3, pre_activation=False)
        b.max_pool("pool", x, kernel=2)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 0
        assert "pre" in graph.nodes

    def test_strips_redundant_pre_activation(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=1)  # rectified
        b.sep_conv2d("sep", x, out_channels=8, kernel=3, pre_activation=True)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 1
        assert not graph.nodes["sep"].pre_activation

    def test_folds_relu_into_linear(self):
        b = GraphBuilder("g", SHAPE)
        x = b.flatten("flat", b.input_name)
        x = b.linear("fc", x, out_features=16, activation=None)
        b.relu("act", x)
        graph, rewrites = FuseActivationPass().run(b.build())
        assert rewrites == 1
        assert graph.nodes["fc"].activation == "relu"

    def test_preserves_flops(self):
        graph = unfuse_activations(load("squeezenet", optimize=False))
        fused, rewrites = FuseActivationPass().run(graph)
        assert rewrites > 0
        assert fused.total_flops() <= graph.total_flops()


class TestCommonSubexpression:
    def duplicate_pools(self):
        b = GraphBuilder("g", SHAPE)
        x = b.input_name
        with b.block("blk"):
            a = b.avg_pool("pool_a", x, kernel=3, stride=1, padding=1)
            c = b.avg_pool("pool_b", x, kernel=3, stride=1, padding=1)
            b.add("sum", [a, c])
        return b.build()

    def test_merges_duplicate_stateless_ops(self):
        graph, rewrites = CommonSubexpressionPass().run(self.duplicate_pools())
        assert rewrites == 1
        assert "pool_b" not in graph.nodes
        assert graph.nodes["sum"].inputs == ("pool_a", "pool_a")
        # add(x, x) still sums two operands of identical shape.
        assert graph.nodes["sum"].output_shape == graph.nodes["pool_a"].output_shape

    def test_does_not_merge_weighted_operators(self):
        b = GraphBuilder("g", SHAPE)
        x = b.input_name
        with b.block("blk"):
            left = b.conv2d("conv_a", x, out_channels=4, kernel=3)
            r = b.conv2d("conv_b", x, out_channels=4, kernel=3)
            b.concat("cat", [left, r])
        graph, rewrites = CommonSubexpressionPass().run(b.build())
        # Same config, but the two convolutions own different learned weights.
        assert rewrites == 0
        assert "conv_a" in graph.nodes and "conv_b" in graph.nodes

    def test_include_weighted_opt_in(self):
        b = GraphBuilder("g", SHAPE)
        x = b.input_name
        with b.block("blk"):
            left = b.conv2d("conv_a", x, out_channels=4, kernel=3)
            r = b.conv2d("conv_b", x, out_channels=4, kernel=3)
            b.concat("cat", [left, r])
        graph, rewrites = CommonSubexpressionPass(include_weighted=True).run(b.build())
        assert rewrites == 1
        assert graph.nodes["cat"].inputs == ("conv_a", "conv_a")

    def test_does_not_merge_across_blocks(self):
        b = GraphBuilder("g", SHAPE)
        x = b.input_name
        with b.block("one"):
            a = b.avg_pool("pool_a", x, kernel=3, stride=1, padding=1)
        with b.block("two"):
            c = b.avg_pool("pool_b", x, kernel=3, stride=1, padding=1)
            b.add("sum", [a, c])
        graph, rewrites = CommonSubexpressionPass().run(b.build())
        assert rewrites == 0

    def test_add_input_order_is_commutative(self):
        b = GraphBuilder("g", SHAPE)
        x = b.input_name
        with b.block("blk"):
            p = b.avg_pool("pool", x, kernel=3, stride=1, padding=1)
            q = b.max_pool("mpool", x, kernel=3, stride=1, padding=1)
            s1 = b.add("sum1", [p, q])
            s2 = b.add("sum2", [q, p])
            b.concat("cat", [s1, s2])
        graph, rewrites = CommonSubexpressionPass().run(b.build())
        assert rewrites == 1
        assert graph.nodes["cat"].inputs == ("sum1", "sum1")

    def test_merges_nasnet_duplicate_pools(self):
        graph = load("nasnet_a", optimize=False)
        optimized, rewrites = CommonSubexpressionPass().run(graph)
        assert rewrites > 0
        assert len(optimized.schedulable_names()) < len(graph.schedulable_names())


class TestSplitConcatSimplify:
    def test_concat_of_complete_split_cancels(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=6, kernel=1)
        s0 = b.split("s0", x, sections=[2, 4], index=0)
        s1 = b.split("s1", x, sections=[2, 4], index=1)
        cat = b.concat("cat", [s0, s1])
        b.max_pool("pool", cat, kernel=2)
        graph, rewrites = SplitConcatSimplifyPass().run(b.build())
        # 1 concat cancelled + 2 orphaned splits dropped in the same pass
        # (after rebuilding, a consumerless split would look like an output).
        assert rewrites == 3
        assert graph.nodes["pool"].inputs == ("conv",)
        assert "s0" not in graph.nodes and "s1" not in graph.nodes

    def test_out_of_order_split_does_not_cancel(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=6, kernel=1)
        s0 = b.split("s0", x, sections=[3, 3], index=0)
        s1 = b.split("s1", x, sections=[3, 3], index=1)
        b.concat("cat", [s1, s0])  # swapped: channel layout differs
        graph, rewrites = SplitConcatSimplifyPass().run(b.build())
        assert rewrites == 0

    def test_split_of_concat_selects_branch(self):
        b = GraphBuilder("g", SHAPE)
        left = b.conv2d("left", b.input_name, out_channels=2, kernel=1)
        r = b.conv2d("right", b.input_name, out_channels=4, kernel=1)
        cat = b.concat("cat", [left, r])
        s = b.split("take_right", cat, sections=[2, 4], index=1)
        b.max_pool("pool", s, kernel=2)
        graph, rewrites = SplitConcatSimplifyPass().run(b.build())
        # split bypassed + orphaned concat dropped + orphaned 'left' branch
        # (the concat was its only consumer) cascaded away.
        assert rewrites == 3
        assert graph.nodes["pool"].inputs == ("right",)
        assert "cat" not in graph.nodes and "left" not in graph.nodes

    def test_single_input_concat_is_removed(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=1)
        cat = b.concat("cat", [x])
        b.max_pool("pool", cat, kernel=2)
        graph, rewrites = SplitConcatSimplifyPass().run(b.build())
        assert rewrites == 1
        assert graph.nodes["pool"].inputs == ("conv",)


class TestEliminateDead:
    def test_identity_is_bypassed(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=1)
        i = b.identity("skip", x)
        b.max_pool("pool", i, kernel=2)
        graph, rewrites = EliminateDeadPass().run(b.build())
        assert rewrites == 1
        assert "skip" not in graph.nodes
        assert graph.nodes["pool"].inputs == ("conv",)

    def test_unconsumed_nodes_are_outputs_not_dead(self):
        # With no consumers, a node *is* a graph output by definition: the
        # pass must not second-guess that.
        b = GraphBuilder("g", SHAPE)
        b.conv2d("live", b.input_name, out_channels=4, kernel=1)
        d1 = b.conv2d("tail1", b.input_name, out_channels=4, kernel=1)
        b.conv2d("tail2", d1, out_channels=4, kernel=1)
        graph, rewrites = EliminateDeadPass().run(b.build())
        assert rewrites == 0
        assert set(graph.nodes) == {"input", "live", "tail1", "tail2"}

    def test_output_identity_transfers_outputness(self):
        b = GraphBuilder("g", SHAPE)
        x = b.conv2d("conv", b.input_name, out_channels=4, kernel=1)
        b.identity("alias", x)
        graph, rewrites = EliminateDeadPass().run(b.build())
        assert rewrites == 1
        assert "alias" not in graph.nodes
        assert graph.output_names() == ["conv"]

    def test_outputs_are_never_removed(self):
        b = GraphBuilder("g", SHAPE)
        b.conv2d("only", b.input_name, out_channels=4, kernel=1)
        graph, rewrites = EliminateDeadPass().run(b.build())
        assert rewrites == 0
        assert "only" in graph.nodes


class TestCanonicalize:
    def test_idempotent(self):
        graph = load("nasnet_a", optimize=False)
        once, rewrites_first = CanonicalizePass().run(graph)
        assert rewrites_first > 0
        again, rewrites_second = CanonicalizePass().run(once)
        assert rewrites_second == 0
        assert again is once

    def test_normalises_insertion_order_for_fingerprints(self):
        def build(right_first: bool):
            b = GraphBuilder("g", SHAPE)
            if right_first:
                r = b.conv2d("r", b.input_name, out_channels=4, kernel=1)
                left = b.conv2d("l", b.input_name, out_channels=4, kernel=3)
            else:
                left = b.conv2d("l", b.input_name, out_channels=4, kernel=3)
                r = b.conv2d("r", b.input_name, out_channels=4, kernel=1)
            b.concat("cat", [left, r])
            return b.build()

        a, _ = CanonicalizePass().run(build(True))
        c, _ = CanonicalizePass().run(build(False))
        assert list(a.nodes) == list(c.nodes)
        assert graph_fingerprint(a) == graph_fingerprint(c)

    def test_sorts_commutative_add_inputs(self):
        def build(swapped: bool):
            b = GraphBuilder("g", SHAPE)
            p = b.avg_pool("apool", b.input_name, kernel=3, stride=1, padding=1)
            m = b.max_pool("mpool", b.input_name, kernel=3, stride=1, padding=1)
            b.add("sum", [m, p] if swapped else [p, m])
            return b.build()

        a, _ = CanonicalizePass().run(build(True))
        c, _ = CanonicalizePass().run(build(False))
        assert a.nodes["sum"].inputs == c.nodes["sum"].inputs
        assert graph_fingerprint(a) == graph_fingerprint(c)


class TestUnfuseRoundTrip:
    @pytest.mark.parametrize("model", ["squeezenet", "resnet_18", "randwire"])
    def test_unfuse_preserves_flops_and_fingerprint_round_trips(self, model):
        fused = load(model, optimize=False)
        raw = unfuse_activations(fused)
        assert raw.total_flops() == fused.total_flops()
        assert len(raw.schedulable_names()) > len(fused.schedulable_names())

        pipeline = default_pipeline()
        from_raw = pipeline.run(raw).graph
        from_fused = pipeline.run(fused).graph
        # Confluence: both routes end at the same optimised graph.
        assert graph_fingerprint(from_raw) == graph_fingerprint(from_fused)
        assert len(from_raw.schedulable_names()) <= len(fused.schedulable_names())

    def test_unfused_graph_validates_and_computes_same_outputs_shape(self):
        fused = load("squeezenet", optimize=False)
        raw = unfuse_activations(fused)
        assert raw.output_names() != []
        fused_out = fused.nodes[fused.output_names()[0]].output_shape
        raw_out = raw.nodes[raw.output_names()[0]].output_shape
        assert fused_out == raw_out
