"""Tests for canonical graph fingerprints (repro.ir.fingerprint)."""

from __future__ import annotations

import pytest

from repro.ir import (
    GraphBuilder,
    TensorShape,
    canonical_order,
    graph_fingerprint,
    graph_from_dict,
    graph_to_dict,
)
from repro.frontend import load


def small_graph(name="g", *, swap_branches=False, rename=False, channels=8):
    b = GraphBuilder(name, TensorShape(1, 3, 16, 16))
    prefix = "n_" if rename else ""
    left = b.conv2d(f"{prefix}left", b.input_name, out_channels=channels, kernel=3)
    right = b.conv2d(f"{prefix}right", b.input_name, out_channels=channels, kernel=1)
    branches = [right, left] if swap_branches else [left, right]
    b.concat(f"{prefix}cat", branches)
    return b.build()


class TestCanonicalOrder:
    def test_is_a_topological_order(self):
        graph = load("squeezenet")
        order = canonical_order(graph)
        assert sorted(order) == sorted(graph.nodes)
        position = {name: i for i, name in enumerate(order)}
        for producer, consumer in graph.edges():
            assert position[producer] < position[consumer]

    def test_deterministic_across_calls(self, diamond):
        assert canonical_order(diamond) == canonical_order(diamond)

    def test_independent_of_insertion_order(self):
        # Build the same structure with the two sibling convolutions added in
        # opposite orders: canonical order must not notice.
        def build(right_first: bool):
            b = GraphBuilder("g", TensorShape(1, 3, 16, 16))
            if right_first:
                right = b.conv2d("right", b.input_name, out_channels=8, kernel=1)
                left = b.conv2d("left", b.input_name, out_channels=8, kernel=3)
            else:
                left = b.conv2d("left", b.input_name, out_channels=8, kernel=3)
                right = b.conv2d("right", b.input_name, out_channels=8, kernel=1)
            b.concat("cat", [left, right])
            return b.build()

        assert canonical_order(build(True)) == canonical_order(build(False))
        assert graph_fingerprint(build(True)) == graph_fingerprint(build(False))


class TestGraphFingerprint:
    def test_stable_across_rebuilds(self):
        assert graph_fingerprint(small_graph()) == graph_fingerprint(small_graph())

    def test_serialisation_round_trip_preserves_fingerprint(self):
        graph = load("squeezenet")
        rebuilt = graph_from_dict(graph_to_dict(graph))
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)

    def test_name_independent(self):
        assert graph_fingerprint(small_graph(rename=True)) == graph_fingerprint(
            small_graph()
        )
        assert graph_fingerprint(small_graph(name="other")) == graph_fingerprint(
            small_graph()
        )

    def test_input_order_matters_for_concat(self):
        # concat(a, b) != concat(b, a): channel layout differs.
        assert graph_fingerprint(small_graph(swap_branches=True)) != graph_fingerprint(
            small_graph()
        )

    def test_structural_changes_change_the_fingerprint(self):
        base = graph_fingerprint(small_graph())
        assert graph_fingerprint(small_graph(channels=16)) != base

    def test_batch_size_changes_the_fingerprint(self):
        one = load("squeezenet", batch_size=1)
        eight = load("squeezenet", batch_size=8)
        assert graph_fingerprint(one) != graph_fingerprint(eight)

    def test_block_structure_changes_the_fingerprint(self):
        def build(two_blocks: bool):
            b = GraphBuilder("g", TensorShape(1, 3, 8, 8))
            with b.block("first"):
                x = b.conv2d("a", b.input_name, out_channels=4, kernel=3)
            if two_blocks:
                with b.block("second"):
                    b.conv2d("b", x, out_channels=4, kernel=3)
            else:
                with b.block("first_more"):
                    b.conv2d("b", x, out_channels=4, kernel=3)
            return b.build()

        # Same ops and wiring; only the block *positions* coincide, so these
        # two fingerprints agree — but merging both ops into one block differs.
        b = GraphBuilder("g", TensorShape(1, 3, 8, 8))
        with b.block("only"):
            x = b.conv2d("a", b.input_name, out_channels=4, kernel=3)
            b.conv2d("b", x, out_channels=4, kernel=3)
        merged = b.build()
        assert graph_fingerprint(build(True)) == graph_fingerprint(build(False))
        assert graph_fingerprint(merged) != graph_fingerprint(build(True))

    def test_length_parameter(self):
        fp = graph_fingerprint(small_graph(), length=32)
        assert len(fp) == 32
        assert fp.startswith(graph_fingerprint(small_graph()))

    def test_cycle_detection(self, diamond):
        diamond.nodes["top"].inputs = ("join",)  # corrupt: create a cycle
        with pytest.raises(ValueError, match="cycle"):
            canonical_order(diamond)
