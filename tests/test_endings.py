"""Unit tests for ending enumeration, pruning and DAG width."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BlockIndex,
    PruningStrategy,
    block_width,
    dag_width,
    enumerate_endings,
    groups_of_mask,
    is_ending,
)
from repro.models import chain_graph, diamond_graph, figure2_block, figure5_graph, parallel_chains_graph


def block_index(graph):
    return BlockIndex(graph, graph.schedulable_names())


def brute_force_endings(block: BlockIndex, state: int) -> set[int]:
    """All non-empty successor-closed subsets of ``state`` by brute force."""
    members = [i for i in range(block.n) if state >> i & 1]
    result = set()
    for size in range(1, len(members) + 1):
        for subset in combinations(members, size):
            mask = 0
            for bit in subset:
                mask |= 1 << bit
            if all((block.succ_mask[bit] & state & ~mask) == 0 for bit in subset):
                result.add(mask)
    return result


class TestPruningStrategy:
    def test_defaults_match_paper(self):
        pruning = PruningStrategy()
        assert pruning.max_group_size == 3
        assert pruning.max_groups == 8
        assert pruning.max_operators == 24
        assert pruning.describe() == "r=3, s=8"

    def test_unpruned(self):
        unpruned = PruningStrategy.unpruned()
        assert unpruned.max_operators is None
        assert unpruned.admits([100] * 50)

    def test_admits(self):
        pruning = PruningStrategy(max_group_size=2, max_groups=3)
        assert pruning.admits([2, 2, 1])
        assert not pruning.admits([3])
        assert not pruning.admits([1, 1, 1, 1])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PruningStrategy(max_group_size=0)
        with pytest.raises(ValueError):
            PruningStrategy(max_groups=0)


class TestBlockIndex:
    def test_topological_bit_order(self, fig2):
        index = block_index(fig2)
        assert index.n == 5
        assert index.index["conv_a"] < index.index["conv_b"]
        assert index.index["conv_b"] < index.index["concat"]

    def test_mask_roundtrip(self, fig2):
        index = block_index(fig2)
        mask = index.mask_of(["conv_a", "concat"])
        assert set(index.names_of(mask)) == {"conv_a", "concat"}
        assert list(index.bits(mask)) == sorted(index.bits(mask))

    def test_succ_and_adj_masks(self, fig2):
        index = block_index(fig2)
        a = index.index["conv_a"]
        b = index.index["conv_b"]
        assert index.succ_mask[a] >> b & 1
        assert index.adj_mask[b] >> a & 1


class TestGroupsOfMask:
    def test_figure2_groups(self, fig2):
        index = block_index(fig2)
        mask = index.mask_of(["conv_a", "conv_c", "conv_d"])
        groups = groups_of_mask(index, mask)
        assert len(groups) == 3
        mask_with_concat = index.mask_of(["conv_c", "conv_d", "concat"])
        assert len(groups_of_mask(index, mask_with_concat)) == 1

    def test_groups_partition_the_mask(self, fig2):
        index = block_index(fig2)
        mask = index.full_mask
        groups = groups_of_mask(index, mask)
        combined = 0
        for group in groups:
            assert combined & group == 0
            combined |= group
        assert combined == mask


class TestIsEnding:
    def test_paper_figure4_semantics(self, fig5):
        # Figure 5 graph: a -> b, c independent.  {b}, {c}, {b, c}, {a, b} ... are
        # endings of the full set; {a} is not (its successor b would be left out).
        index = block_index(fig5)
        full = index.full_mask
        a, b, c = (index.index[f"conv_{x}"] for x in "abc")
        assert is_ending(index, 1 << b, full)
        assert is_ending(index, (1 << b) | (1 << c), full)
        assert is_ending(index, (1 << a) | (1 << b), full)
        assert not is_ending(index, 1 << a, full)
        assert not is_ending(index, 0, full)
        assert not is_ending(index, 1 << a, 1 << b)  # not a subset


class TestEnumerateEndings:
    def test_figure5_full_state_endings(self, fig5):
        # Endings of {a, b, c}: {b}, {c}, {b,c}, {a,b}, {a,b,c} -> 5, matching
        # the five outgoing transitions of the initial state in Figure 5 (2).
        index = block_index(fig5)
        endings = {mask for mask, _ in enumerate_endings(index, index.full_mask)}
        assert len(endings) == 5

    def test_matches_brute_force_on_examples(self):
        for graph in (figure5_graph(), diamond_graph(), figure2_block(),
                      parallel_chains_graph(2, 2, join=False), chain_graph(4)):
            index = BlockIndex(graph, graph.schedulable_names())
            got = {mask for mask, _ in enumerate_endings(index, index.full_mask)}
            assert got == brute_force_endings(index, index.full_mask)

    def test_chain_has_suffix_endings_only(self):
        graph = chain_graph(length=5)
        index = BlockIndex(graph, graph.schedulable_names())
        endings = {mask for mask, _ in enumerate_endings(index, index.full_mask)}
        assert len(endings) == 5  # the 5 suffixes

    def test_group_decomposition_returned(self, fig2):
        index = block_index(fig2)
        for mask, groups in enumerate_endings(index, index.full_mask):
            assert sum(groups) == mask
            for group in groups:
                assert group & mask == group

    def test_pruning_limits_group_size(self, fig2):
        index = block_index(fig2)
        pruning = PruningStrategy(max_group_size=1, max_groups=8)
        for _mask, groups in enumerate_endings(index, index.full_mask, pruning):
            assert all(g.bit_count() == 1 for g in groups)

    def test_pruning_limits_group_count(self):
        graph = parallel_chains_graph(num_chains=4, chain_length=1, join=False)
        index = BlockIndex(graph, graph.schedulable_names())
        pruning = PruningStrategy(max_group_size=3, max_groups=2)
        counts = [len(groups) for _m, groups in enumerate_endings(index, index.full_mask, pruning)]
        assert counts and max(counts) <= 2

    def test_pruned_is_subset_of_unpruned(self, fig2):
        index = block_index(fig2)
        unpruned = {m for m, _ in enumerate_endings(index, index.full_mask)}
        pruned = {m for m, _ in enumerate_endings(index, index.full_mask, PruningStrategy(1, 2))}
        assert pruned <= unpruned
        assert len(pruned) < len(unpruned)

    def test_empty_state_yields_nothing(self, fig2):
        index = block_index(fig2)
        assert list(enumerate_endings(index, 0)) == []

    @settings(max_examples=25, deadline=None)
    @given(num_chains=st.integers(1, 3), chain_length=st.integers(1, 3), data=st.data())
    def test_every_ending_is_successor_closed_property(self, num_chains, chain_length, data):
        graph = parallel_chains_graph(num_chains, chain_length, join=True)
        index = BlockIndex(graph, graph.schedulable_names())
        # Pick a random reachable sub-state by removing one enumerated ending.
        all_endings = [m for m, _ in enumerate_endings(index, index.full_mask)]
        ending = data.draw(st.sampled_from(all_endings))
        state = index.full_mask & ~ending
        for mask, _groups in enumerate_endings(index, state):
            assert is_ending(index, mask, state)


class TestWidth:
    def test_chain_width_is_one(self):
        assert dag_width(chain_graph(length=5)) == 1

    def test_parallel_chains_width_is_chain_count(self):
        graph = parallel_chains_graph(num_chains=4, chain_length=3, join=False)
        assert dag_width(graph) == 4

    def test_figure2_width(self, fig2):
        # conv_a, conv_c, conv_d are mutually unreachable -> width 3.
        assert dag_width(fig2) == 3

    def test_diamond_width(self, diamond):
        assert dag_width(diamond) == 2

    def test_block_width_matches_dag_width_single_block(self, fig2):
        assert block_width(fig2, fig2.blocks[0]) == dag_width(fig2)

    def test_empty_subset(self, fig2):
        assert dag_width(fig2, []) == 0

    def test_inception_c_block_width_matches_paper(self):
        from repro.frontend import load

        graph = load("inception_v3")
        block = next(b for b in graph.blocks if b.name == "mixed_7c")
        # Paper Table 1: the largest Inception V3 block has n=11, d=6.
        assert len(graph.schedulable_names(block)) == 11
        assert block_width(graph, block) == 6
