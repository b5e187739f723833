"""Unit tests for the operator-merge strategy."""

from __future__ import annotations

import pytest

from repro.core import MergeError, build_merged_operator, can_merge, why_not_mergeable
from repro.ir import Conv2d, GraphBuilder, TensorShape
from repro.frontend import load
from repro.models import figure2_block


@pytest.fixture
def branchy():
    """Input feeding three 1x1/3x3/5x5 convolutions plus one strided conv."""
    builder = GraphBuilder("branchy", TensorShape(1, 64, 14, 14))
    x = builder.input_name
    with builder.block("b"):
        builder.conv2d("c1", x, out_channels=32, kernel=1)
        builder.conv2d("c3", x, out_channels=48, kernel=3)
        builder.conv2d("c5", x, out_channels=16, kernel=5)
        builder.conv2d("c_stride", x, out_channels=32, kernel=3, stride=2)
        builder.conv2d("c_noact", x, out_channels=32, kernel=3, activation=None)
        builder.sep_conv2d("sep", x, out_channels=32, kernel=3)
    return builder.build()


class TestEligibility:
    def test_same_input_convs_mergeable(self, branchy):
        assert can_merge(branchy, ["c1", "c3", "c5"])
        assert why_not_mergeable(branchy, ["c1", "c3"]) is None

    def test_single_operator_not_a_merge(self, branchy):
        assert not can_merge(branchy, ["c1"])

    def test_different_stride_not_mergeable(self, branchy):
        reason = why_not_mergeable(branchy, ["c3", "c_stride"])
        assert reason is not None and "stride" in reason

    def test_different_activation_not_mergeable(self, branchy):
        assert not can_merge(branchy, ["c3", "c_noact"])

    def test_sep_conv_not_mergeable(self, branchy):
        assert not can_merge(branchy, ["sep", "c3"])
        assert not can_merge(branchy, ["sep", "sep"])

    def test_different_inputs_not_mergeable(self, fig2):
        # conv_b consumes conv_a's output, conv_c consumes the graph input.
        assert not can_merge(fig2, ["conv_b", "conv_c"])

    def test_figure3_a_b_mergeable(self, fig3):
        assert can_merge(fig3, ["conv_a", "conv_b"])

    def test_fire_module_expansions_mergeable(self):
        graph = load("squeezenet")
        assert can_merge(graph, ["fire2_expand1x1", "fire2_expand3x3"])

    def test_inception_c_1x3_3x1_mergeable(self):
        graph = load("inception_v3")
        assert can_merge(graph, ["mixed_7c_b3_1x3", "mixed_7c_b3_3x1"])


class TestMergedOperator:
    def test_channel_stacking_and_kernel_padding(self, branchy):
        merged = build_merged_operator(branchy, ["c1", "c3", "c5"])
        conv = merged.merged
        assert isinstance(conv, Conv2d)
        assert conv.out_channels == 32 + 48 + 16
        assert conv.kernel == (5, 5)
        assert conv.output_shape == TensorShape(1, 96, 14, 14)
        assert merged.sections == (32, 48, 16)

    def test_splits_recover_original_outputs(self, branchy):
        merged = build_merged_operator(branchy, ["c1", "c3", "c5"])
        assert len(merged.splits) == 3
        for split, name in zip(merged.splits, ["c1", "c3", "c5"]):
            assert split.output_shape == branchy.nodes[name].output_shape
            assert not split.launches_kernel

    def test_padding_overhead_zero_for_equal_kernels(self):
        graph = figure2_block()
        merged = build_merged_operator(graph, ["conv_c", "conv_d"])
        original = graph.nodes["conv_c"].flops() + graph.nodes["conv_d"].flops()
        assert merged.merged.flops() == pytest.approx(original, rel=1e-6)
        assert merged.padding_overhead_flops == pytest.approx(0.0, abs=1e-6)

    def test_padding_overhead_positive_for_mixed_kernels(self, branchy):
        merged = build_merged_operator(branchy, ["c1", "c3"])
        assert merged.padding_overhead_flops > 0

    def test_merged_preserves_spatial_grid_for_asymmetric_kernels(self):
        graph = load("inception_v3")
        merged = build_merged_operator(graph, ["mixed_7c_b3_1x3", "mixed_7c_b3_3x1"])
        assert merged.merged.kernel == (3, 3)
        assert merged.merged.output_shape.height == graph.nodes["mixed_7c_b3_1x3"].output_shape.height

    def test_merge_reads_shared_input_once(self, branchy):
        merged = build_merged_operator(branchy, ["c1", "c3"])
        individual_reads = branchy.nodes["c1"].input_bytes() + branchy.nodes["c3"].input_bytes()
        assert merged.merged.input_bytes() == pytest.approx(individual_reads / 2)

    def test_merge_error_on_ineligible_sets(self, branchy, fig2):
        with pytest.raises(MergeError):
            build_merged_operator(branchy, ["c3", "c_stride"])
        with pytest.raises(MergeError):
            build_merged_operator(fig2, ["conv_b", "conv_c"])
        with pytest.raises(MergeError):
            build_merged_operator(branchy, ["c1"])

    def test_source_names_recorded(self, branchy):
        merged = build_merged_operator(branchy, ["c1", "c3"])
        assert merged.source_names == ("c1", "c3")
        assert "c1" in merged.merged.name and "c3" in merged.merged.name
