"""Unit tests for schedule-space counting and complexity bounds."""

from __future__ import annotations


import pytest

from repro.core import (
    PruningStrategy,
    block_complexity,
    count_schedules,
    count_transitions_and_states,
    largest_block,
    relaxed_transition_bound,
    transition_upper_bound,
)
from repro.frontend import load
from repro.models import (
    chain_graph,
    diamond_graph,
    figure5_graph,
    parallel_chains_graph,
)


class TestBounds:
    def test_paper_table1_bound_values(self):
        # The paper's Table 1 reports ~2.6e4 for Inception (n=11, d=6) and
        # ~3.7e9 for RandWire (n=33, d=8).
        assert transition_upper_bound(11, 6) == pytest.approx(2.6e4, rel=0.1)
        assert transition_upper_bound(33, 8) == pytest.approx(3.7e9, rel=0.1)
        assert transition_upper_bound(18, 8) == pytest.approx(5.2e6, rel=0.1)
        assert transition_upper_bound(6, 3) == pytest.approx(2.2e2, rel=0.1)

    def test_relaxed_bound_is_looser(self):
        for n, d in [(11, 6), (33, 8), (18, 8)]:
            assert relaxed_transition_bound(n, d) >= transition_upper_bound(n, d)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            transition_upper_bound(0, 3)
        with pytest.raises(ValueError):
            relaxed_transition_bound(5, 0)


class TestCounting:
    def test_chain_counts(self):
        graph = chain_graph(length=4)
        names = graph.schedulable_names()
        transitions, states = count_transitions_and_states(graph, names)
        # A chain of n ops has n+1 reachable states (suffixes removed) and
        # n*(n+1)/2 transitions ... here states include the full and empty set.
        assert states == 5
        assert transitions == 4 + 3 + 2 + 1
        # Schedules of a chain = compositions of n = 2^(n-1).
        assert count_schedules(graph, names) == 8

    def test_figure5_counts_match_paper_figure(self):
        graph = figure5_graph()
        names = graph.schedulable_names()
        transitions, states = count_transitions_and_states(graph, names)
        # Figure 5 (2) shows 6 states (including the empty one) and 12 transitions.
        assert states == 6
        assert transitions == 12

    def test_independent_ops_schedule_count(self):
        # d independent single-op chains: schedules = ordered set partitions
        # (Fubini numbers): 2 ops -> 3, 3 ops -> 13.
        two = parallel_chains_graph(2, 1, join=False)
        three = parallel_chains_graph(3, 1, join=False)
        assert count_schedules(two, two.schedulable_names()) == 3
        assert count_schedules(three, three.schedulable_names()) == 13

    def test_diamond_counts(self, diamond):
        names = diamond.schedulable_names()
        transitions, states = count_transitions_and_states(diamond, names)
        assert states >= 4
        assert transitions >= states - 1
        assert count_schedules(diamond, names) >= 4

    def test_pruning_reduces_both_counts(self):
        graph = parallel_chains_graph(3, 2, join=False)
        names = graph.schedulable_names()
        full_t, full_s = count_transitions_and_states(graph, names)
        pruned_t, pruned_s = count_transitions_and_states(
            graph, names, PruningStrategy(max_group_size=1, max_groups=2)
        )
        assert pruned_t < full_t
        assert pruned_s <= full_s
        assert count_schedules(graph, names, PruningStrategy(1, 2)) <= count_schedules(graph, names)

    def test_worst_case_family_meets_bound(self):
        for c, d in [(1, 2), (2, 2), (2, 3)]:
            graph = parallel_chains_graph(d, c, join=False)
            names = graph.schedulable_names()
            transitions, states = count_transitions_and_states(graph, names)
            bound = transition_upper_bound(len(names), d)
            assert transitions + states == pytest.approx(bound)


class TestBlockComplexity:
    def test_largest_block_selection(self):
        graph = load("inception_v3")
        block = largest_block(graph)
        sizes = [len(graph.schedulable_names(b)) for b in graph.blocks]
        assert len(graph.schedulable_names(block)) == max(sizes)

    def test_block_complexity_row(self):
        graph = load("squeezenet")
        row = block_complexity(graph)
        assert row.network == "squeezenet"
        assert row.num_operators >= 4
        assert row.width >= 2
        assert row.num_transitions > 0
        assert row.num_schedules > 0
        assert row.upper_bound >= row.num_transitions
        assert "n" in row.as_row()

    def test_schedule_count_can_be_skipped(self):
        graph = load("squeezenet")
        row = block_complexity(graph, count_schedule_space=False)
        assert row.num_schedules == -1

    def test_schedules_vastly_exceed_transitions_on_wide_blocks(self):
        graph = parallel_chains_graph(4, 3, join=False)
        names = graph.schedulable_names()
        transitions, _ = count_transitions_and_states(graph, names)
        schedules = count_schedules(graph, names)
        assert schedules > 10 * transitions
