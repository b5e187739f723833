"""Schedule-equivalence harness for the fast compile paths.

The compile-speed work (memoization, incremental recompilation, parallel
block search, cost-model caching) is only admissible because every fast path
produces *bit-identical* schedules to a plain serial DP search.  These
property tests pin that invariant down:

* memoized and block-cached searches match a from-scratch serial search on
  every zoo model tested and on 50 seeded random DAGs;
* the multiprocessing fan-out (``jobs > 1``) matches the serial path;
* the engine's incremental recompilation re-searches only dirty blocks and
  splices the rest, and the spliced result equals a cold compile of the
  mutated graph;
* the group decomposition the ending enumeration hands the cost model equals
  ``connected_groups`` — the ordering contract the whole pricing path
  relies on;
* blocks that share a wiring share one ending lattice, and a search reading
  it prices, counts and chooses exactly like one with the cache cleared
  before every block; a cold ``inception_v3`` compile stays pinned to its
  recorded values.

Equality is checked at the bit level: stage operator tuples, strategies, and
the ``repr`` of every per-block latency (``repr`` round-trips floats, so two
equal reprs mean identical doubles).
"""

from __future__ import annotations

import hashlib

import pytest

import repro.core.dp_scheduler as dp_scheduler
from repro.core import (
    BlockIndex,
    FlopsCostModel,
    IOSScheduler,
    PruningStrategy,
    SchedulerConfig,
    SimulatedCostModel,
    clear_schedule_memo,
    connected_groups,
    enumerate_endings,
    groups_of_mask,
)
from repro.core.endings import clear_lattice_cache, ending_lattice
from repro.hardware import get_device
from repro.engine import Engine
from repro.ir.graph import GraphBuilder
from repro.ir.tensor import TensorShape
from repro.frontend import load

SEEDS = range(50)
ZOO_MODELS = ["squeezenet", "resnet_18", "vgg_16"]


def _cost_model():
    return FlopsCostModel(flops_per_ms=1e9, overhead_ms=0.01)


def _plain_scheduler():
    """A scheduler with every reuse path off: the ground-truth serial search."""
    return IOSScheduler(_cost_model(), SchedulerConfig(reuse_identical_blocks=False))


def _fast_scheduler():
    """A scheduler with the block cache and process-wide memo enabled."""
    return IOSScheduler(_cost_model(), SchedulerConfig())


def stage_signature(schedule):
    """The byte-level identity of a schedule: operators + strategy per stage."""
    return tuple((stage.operators, stage.strategy.value) for stage in schedule.stages)


def latency_signature(result):
    """Exact per-block DP optima; ``repr`` equality means identical doubles."""
    return tuple(repr(stats.optimized_latency_ms) for stats in result.block_stats)


def assert_results_identical(expected, actual):
    assert stage_signature(actual.schedule) == stage_signature(expected.schedule)
    assert latency_signature(actual) == latency_signature(expected)


class TestMemoizedEqualsSerial:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed, random_graph_factory):
        graph = random_graph_factory(seed)
        plain = _plain_scheduler().optimize_graph(graph)

        clear_schedule_memo()
        warm = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, warm)

        # A *fresh* scheduler instance now hits the process-wide memo: no
        # block may fall back to a search, and the result is still identical.
        hit = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, hit)
        assert not any(
            stats.source in ("search", "parallel") for stats in hit.block_stats
        )

    @pytest.mark.parametrize("model", ZOO_MODELS)
    def test_zoo_models(self, model):
        graph = load(model)
        plain = _plain_scheduler().optimize_graph(graph)

        clear_schedule_memo()
        warm = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, warm)

        hit = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, hit)
        assert not any(
            stats.source in ("search", "parallel") for stats in hit.block_stats
        )

    @pytest.mark.parametrize("seed", [3, 17])
    def test_disabling_the_memo_changes_nothing_but_the_source(
        self, seed, random_graph_factory, monkeypatch
    ):
        graph = random_graph_factory(seed)
        _fast_scheduler().optimize_graph(graph)  # populate the memo

        monkeypatch.setenv("REPRO_SCHEDULE_MEMO", "0")
        cold = _fast_scheduler().optimize_graph(graph)
        assert not any(stats.source == "memo" for stats in cold.block_stats)

        monkeypatch.setenv("REPRO_SCHEDULE_MEMO", "1")
        hot = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(cold, hot)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs(self, seed, random_graph_factory):
        graph = random_graph_factory(seed)
        serial = _plain_scheduler().optimize_graph(graph, jobs=1)

        clear_schedule_memo()
        fanout = _fast_scheduler().optimize_graph(graph, jobs=2)
        assert_results_identical(serial, fanout)

    def test_zoo_model(self):
        graph = load("squeezenet")
        serial = _plain_scheduler().optimize_graph(graph, jobs=1)

        clear_schedule_memo()
        fanout = _fast_scheduler().optimize_graph(graph, jobs=2)
        assert_results_identical(serial, fanout)


def _two_block_graph(stem_kernel=3, head_kernel=1, name="incr-model"):
    """Two explicit blocks; either block can be dirtied independently."""
    builder = GraphBuilder(name, TensorShape(1, 8, 8, 8))
    with builder.block("stem"):
        a = builder.conv2d("stem_conv", builder.input_name, 8, stem_kernel)
        b = builder.relu("stem_relu", a)
    with builder.block("head"):
        c = builder.conv2d("head_conv", b, 8, head_kernel)
        d = builder.conv2d("head_conv2", b, 8, head_kernel)
        builder.add("head_add", [c, d])
    return builder.build()


def _flops_engine():
    return Engine("v100", scheduler=IOSScheduler(_cost_model(), SchedulerConfig()))


class TestIncrementalRecompilation:
    def test_only_the_dirty_block_is_researched(self):
        engine = _flops_engine()
        engine.compile(_two_block_graph(head_kernel=1))
        searched_before = engine.stats.block_searches

        clear_schedule_memo()  # force the dirty block to a real search
        second = engine.compile(_two_block_graph(head_kernel=3))
        assert engine.stats.blocks_spliced == 1
        assert engine.stats.block_searches == searched_before + 1
        sources = {s.block_name: s.source for s in second.search.block_stats}
        assert sources["stem"] == "spliced"
        assert sources["head"] in ("search", "parallel")

    def test_upstream_mutation_still_splices_the_clean_downstream_block(self):
        # The stem's kernel changes but its boundary shapes do not, so the
        # head's digest is unchanged and its stages splice over verbatim.
        engine = _flops_engine()
        engine.compile(_two_block_graph(stem_kernel=3))

        clear_schedule_memo()
        second = engine.compile(_two_block_graph(stem_kernel=1))
        sources = {s.block_name: s.source for s in second.search.block_stats}
        assert sources["stem"] in ("search", "parallel")
        assert sources["head"] == "spliced"

    def test_incremental_compile_equals_a_cold_compile(self):
        engine = _flops_engine()
        engine.compile(_two_block_graph(head_kernel=1))
        incremental = engine.compile(_two_block_graph(head_kernel=3))
        assert engine.stats.blocks_spliced == 1

        clear_schedule_memo()
        cold = _flops_engine().compile(_two_block_graph(head_kernel=3))
        assert stage_signature(incremental.schedule) == stage_signature(cold.schedule)
        assert latency_signature(incremental.search) == latency_signature(cold.search)
        assert repr(incremental.latency_ms()) == repr(cold.latency_ms())

    @pytest.mark.parametrize("seed", [5, 23, 41])
    def test_recompiling_an_identical_random_graph_splices_every_block(
        self, seed, random_graph_factory
    ):
        engine = _flops_engine()
        first = engine.compile(random_graph_factory(seed))
        second = engine.compile(random_graph_factory(seed), use_cache=True)
        if second is first:  # whole-model cache hit: also a valid fast path
            assert engine.stats.cache_hits >= 1
            return
        assert all(s.source in ("spliced", "empty") for s in second.search.block_stats)
        assert_results_identical(first.search, second.search)


class TestImportedGraphs:
    """Frontend-imported graphs go through the same fast paths as zoo models:
    memoized, parallel and incremental searches must stay bit-identical."""

    def _transformer(self, heads=2):
        from pathlib import Path

        from repro.frontend import load

        examples = Path(__file__).resolve().parents[2] / "examples"
        if heads == 2:
            return load(examples / "transformer_block.json")
        from repro.models import transformer_block

        return transformer_block(heads=heads)

    def test_memoized_equals_serial_on_the_imported_transformer(self):
        graph = self._transformer()
        plain = _plain_scheduler().optimize_graph(graph)

        clear_schedule_memo()
        warm = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, warm)

        hit = _fast_scheduler().optimize_graph(graph)
        assert_results_identical(plain, hit)
        assert not any(
            stats.source in ("search", "parallel") for stats in hit.block_stats
        )

    def test_parallel_equals_serial_on_the_imported_transformer(self):
        graph = self._transformer()
        serial = _plain_scheduler().optimize_graph(graph, jobs=1)

        clear_schedule_memo()
        fanout = _fast_scheduler().optimize_graph(graph, jobs=2)
        assert_results_identical(serial, fanout)

    def test_head_count_change_only_researches_dirty_blocks(self):
        # Going from 2 to 4 heads rewrites the qkv/attention/merge blocks but
        # leaves the ffn block (same boundary shapes) spliceable.
        engine = _flops_engine()
        engine.compile(self._transformer(heads=2))
        clear_schedule_memo()
        second = engine.compile(self._transformer(heads=4))
        sources = {s.block_name: s.source for s in second.search.block_stats}
        assert sources["ffn"] == "spliced"
        assert sources["attention"] in ("search", "parallel")

        clear_schedule_memo()
        cold = _flops_engine().compile(self._transformer(heads=4))
        assert stage_signature(second.schedule) == stage_signature(cold.schedule)


class TestGroupDecomposition:
    """The DP's group masks must equal ``connected_groups`` exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_enumerated_groups_match_connected_groups(self, seed, random_graph_factory):
        graph = random_graph_factory(seed)
        pruning = PruningStrategy(max_group_size=3, max_groups=8)
        for block in graph.blocks:
            names = graph.schedulable_names(block)
            if not names:
                continue
            index = BlockIndex(graph, names)
            for ending, group_masks in enumerate_endings(
                index, index.full_mask, pruning
            ):
                expected = connected_groups(graph, index.names_of(ending))
                assert [list(index.names_of(m)) for m in group_masks] == expected
                assert group_masks == groups_of_mask(index, ending)


def _twin_cells_graph():
    """Three blocks with one wiring and different channel widths."""
    builder = GraphBuilder("twin-cells", TensorShape(1, 16, 8, 8))
    current = builder.input_name
    for b, width in enumerate([8, 16, 24]):
        with builder.block(f"cell{b}"):
            left = builder.conv2d(f"c{b}_left", current, width, 3)
            right = builder.conv2d(f"c{b}_right", current, width, 1)
            deep = builder.conv2d(f"c{b}_deep", right, width, 3)
            side = builder.relu(f"c{b}_side", left)
            wide = builder.conv2d(f"c{b}_wide", current, 2 * width, 1)
            current = builder.concat(f"c{b}_out", [side, deep, wide])
    return builder.build()


def _counting_enumerations(monkeypatch):
    """Count the DP's ``enumerate_endings`` calls (one per enumerated state)."""
    calls = []

    def counting(index, state, pruning=None):
        calls.append(state)
        return enumerate_endings(index, state, pruning)

    monkeypatch.setattr(dp_scheduler, "enumerate_endings", counting)
    return calls


def _block_indexes(graph):
    return [BlockIndex(graph, graph.schedulable_names(block)) for block in graph.blocks]


class TestSharedEndingLattice:
    """Blocks with one wiring share an ending lattice; nothing else changes."""

    def _cold_per_block(self, graph, config):
        """The referee: every block searched with the lattice cache cleared."""
        cost_model = SimulatedCostModel(get_device("v100"))
        scheduler = IOSScheduler(cost_model, config)
        results = []
        for block in graph.blocks:
            clear_lattice_cache()
            results.append(scheduler.optimize_block(graph, block, use_memo=False))
        return results, cost_model

    def _assert_blocks_identical(self, result, expected):
        assert [(s.operators, s.strategy.value) for s in result.schedule.stages] == [
            (s.operators, s.strategy.value) for stages, _ in expected for s in stages
        ]
        for stats, (_, cold) in zip(result.block_stats, expected):
            assert repr(stats.optimized_latency_ms) == repr(cold.optimized_latency_ms)
            assert stats.num_states == cold.num_states
            assert stats.num_transitions == cold.num_transitions
            assert stats.num_measurements == cold.num_measurements

    def test_same_wiring_blocks_share_one_lattice(self):
        first, *rest = _block_indexes(_twin_cells_graph())
        pruning = PruningStrategy(3, 8)
        assert all(index.succ_mask == first.succ_mask for index in rest)
        clear_lattice_cache()
        lattice = ending_lattice(first, pruning)
        assert all(ending_lattice(index, pruning) is lattice for index in rest)

    def test_cache_clears_once_it_holds_too_many_transitions(self, monkeypatch):
        from repro.core import endings

        graph = _twin_cells_graph()
        index = _block_indexes(graph)[0]
        clear_lattice_cache()
        IOSScheduler(FlopsCostModel(), SchedulerConfig()).optimize_graph(graph, use_memo=False)
        searched = ending_lattice(index, PruningStrategy(3, 8))
        assert searched.num_transitions > 10

        monkeypatch.setattr(endings, "_LATTICE_CACHE_LIMIT", 10)
        ending_lattice(index, PruningStrategy(1, 2))  # a new key finds the cache full
        assert ending_lattice(index, PruningStrategy(3, 8)) is not searched

    @pytest.mark.parametrize("variant", ["ios-both", "ios-merge"])
    def test_shared_lattice_search_equals_cold_per_block_search(self, variant, monkeypatch):
        graph = _twin_cells_graph()
        config = SchedulerConfig.variant(variant)
        expected, cold_model = self._cold_per_block(graph, config)

        clear_lattice_cache()
        calls = _counting_enumerations(monkeypatch)
        cost_model = SimulatedCostModel(get_device("v100"))
        result = IOSScheduler(cost_model, config).optimize_graph(graph, use_memo=False)

        assert [stats.source for stats in result.block_stats] == ["search"] * 3
        self._assert_blocks_identical(result, expected)
        assert cost_model.num_measurements == cold_model.num_measurements
        assert repr(cost_model.profiler.total_profiling_ms) == repr(
            cold_model.profiler.total_profiling_ms
        )
        # Only the first cell enumerated its states; the others read its lattice.
        assert len(calls) == result.block_stats[0].num_states

    def test_pruning_strategies_do_not_share_a_lattice(self, monkeypatch):
        graph = _twin_cells_graph()
        index = _block_indexes(graph)[0]
        wide, narrow = PruningStrategy(3, 8), PruningStrategy(1, 2)
        clear_lattice_cache()
        assert ending_lattice(index, wide) is not ending_lattice(index, narrow)

        # With the wide strategy's lattice cached, a narrow search must still
        # enumerate its own states and equal a cold narrow search.
        expected, _ = self._cold_per_block(graph, SchedulerConfig(pruning=narrow))
        clear_lattice_cache()
        IOSScheduler(SimulatedCostModel(get_device("v100")),
                     SchedulerConfig(pruning=wide)).optimize_graph(graph, use_memo=False)
        calls = _counting_enumerations(monkeypatch)
        result = IOSScheduler(
            SimulatedCostModel(get_device("v100")), SchedulerConfig(pruning=narrow)
        ).optimize_graph(graph, use_memo=False)
        self._assert_blocks_identical(result, expected)
        assert len(calls) == result.block_stats[0].num_states

        lattice = ending_lattice(index, narrow)
        for state, ending_ids in lattice.endings.items():
            assert [(lattice.masks[i], list(lattice.groups[i])) for i in ending_ids] == (
                enumerate_endings(index, state, narrow)
            )


class TestPinnedColdCompile:
    """A cold ``inception_v3`` compile on v100, pinned to recorded values.

    Its mixed_5b-5d and mixed_6b-6e blocks share wiring, so their searches
    read shared ending lattices.  The values were recorded before lattices
    were shared; any drift means the search itself changed.
    """

    def test_inception_v3_v100_matches_recorded_values(self):
        clear_lattice_cache()
        engine = Engine("v100", passes=True, jobs=1)
        model = engine.compile(load("inception_v3"))
        stats = model.search.block_stats
        stages = repr(stage_signature(model.schedule))
        assert hashlib.sha256(stages.encode()).hexdigest() == (
            "95c7c13fd469255d063837a264e50341987863752b3bebf83c1db364faea4bdb"
        )
        assert len(model.schedule.stages) == 38
        assert repr(model.search.predicted_latency_ms) == "2.7749268310903505"
        assert repr(model.latency_ms()) == "2.7749268310903514"
        assert sum(s.num_states for s in stats) == 1208
        assert sum(s.num_transitions for s in stats) == 25105
        assert engine.cost_model.num_measurements == 4698
        assert repr(engine.cost_model.profiler.total_profiling_ms) == "2543.630738984297"


class TestPinnedSearchCost:
    """More cold v100 searches, pinned to values recorded before stages were
    priced on bitmasks: results, states, transitions and the measurement
    count and profiling time that Figure 9 reports as search cost."""

    def test_transformer_block_v100_matches_recorded_values(self):
        # An imported graph: its search runs on operators the frontend
        # built.  (Its projections read distinct weights, so none merge;
        # inception_v3's pin covers MERGE pricing.)
        from pathlib import Path

        clear_lattice_cache()
        engine = Engine("v100", passes=True, jobs=1)
        examples = Path(__file__).resolve().parents[2] / "examples"
        model = engine.compile(load(examples / "transformer_block.json"))
        stats = model.search.block_stats
        stages = repr(stage_signature(model.schedule))
        assert hashlib.sha256(stages.encode()).hexdigest() == (
            "48fab74628fb17b778fb888e6c7722844a28efefba3d2dc8e406535ea81e9161"
        )
        assert sum(s.num_states for s in stats) == 156
        assert sum(s.num_transitions for s in stats) == 2808
        assert engine.cost_model.num_measurements == 628
        assert repr(engine.cost_model.profiler.total_profiling_ms) == "39.93338234583885"

    def test_figure9_inception_rows_match_recorded_values(self):
        from repro.engine import clear_engine_pool
        from repro.experiments.fig09_pruning import run_figure9

        clear_engine_pool()
        clear_lattice_cache()
        table = run_figure9(models=("inception_v3",), device="v100")
        assert table.column("stage_measurements") == [4698, 3209, 1101, 3276, 2263, 837]
        assert [repr(gpu_s) for gpu_s in table.column("optimization_gpu_s")] == [
            "2.5436307389842967",
            "1.3621779466968746",
            "0.3033633099825098",
            "1.6636824512263018",
            "0.8944874310530031",
            "0.21282527968145662",
        ]

    def test_second_search_on_the_same_cost_model_measures_nothing(self):
        graph = load("inception_v3")
        cost_model = SimulatedCostModel(get_device("v100"))
        first = IOSScheduler(cost_model).optimize_graph(graph, use_memo=False)
        cold = cost_model.num_measurements
        assert cold == 4698
        second = IOSScheduler(cost_model).optimize_graph(graph, use_memo=False)
        assert cost_model.num_measurements == cold
        assert_results_identical(first, second)
        # The name-based entry reads the same cache the searches filled (a
        # block reused from an identical one priced only that one's names).
        stages = iter(first.schedule.stages)
        for stats in first.block_stats:
            for stage in [next(stages) for _ in range(stats.num_stages)]:
                if stats.source == "search":
                    cost_model.stage_latency(graph, stage.operators, stage.strategy)
        assert cost_model.num_measurements == cold
