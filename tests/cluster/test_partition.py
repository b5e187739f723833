"""Tests for graph partitioning: device assignment + communication insertion."""

from __future__ import annotations

import pytest

from repro.cluster import PartitionError, partition_graph
from repro.engine import Engine
from repro.ir import validate_graph
from repro.frontend import load


@pytest.fixture(scope="module")
def squeezenet():
    return load("squeezenet", 1)


class TestPartitionGraph:
    def test_stages_tile_the_block_list(self, squeezenet):
        plan = partition_graph(squeezenet, 4, model="squeezenet")
        assert plan.num_stages == 4
        ranges = [stage.block_range for stage in plan.stages]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == len(squeezenet.blocks)
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert [stage.host for stage in plan.stages] == [0, 1, 2, 3]

    def test_balances_the_flops_bottleneck(self, squeezenet):
        # The DP minimises the maximum per-stage FLOPs: the bottleneck of the
        # chosen plan can never exceed the whole model on one host, and any
        # other cut of the same stage count is at least as imbalanced.
        plan = partition_graph(squeezenet, 2, model="squeezenet")
        total = sum(stage.flops for stage in plan.stages)
        bottleneck = max(stage.flops for stage in plan.stages)
        assert bottleneck < total
        assert bottleneck >= total / 2

    def test_memory_bounds_bind_stage_placement(self, squeezenet):
        # Host 1 is small: the plan must keep stage 1's resident weights under
        # its bound even at the cost of FLOPs balance.
        bound_gb = 3e-3  # 3 MB
        unbounded = partition_graph(squeezenet, 2, model="squeezenet")
        assert unbounded.stages[1].weight_bytes > bound_gb * 1e9
        plan = partition_graph(
            squeezenet, 2, memory_bounds=[None, bound_gb], model="squeezenet"
        )
        assert plan.stages[1].weight_bytes <= bound_gb * 1e9
        assert plan.stages[1].block_range != unbounded.stages[1].block_range

    def test_infeasible_bounds_raise(self, squeezenet):
        with pytest.raises(PartitionError):
            partition_graph(
                squeezenet, 2, memory_bounds=[1e-6, 1e-6], model="squeezenet"
            )

    def test_deterministic(self, squeezenet):
        first = partition_graph(squeezenet, 3, model="squeezenet")
        second = partition_graph(load("squeezenet", 1), 3, model="squeezenet")
        assert first.stages == second.stages

    def test_single_stage_is_the_whole_model(self, squeezenet):
        plan = partition_graph(squeezenet, 1, model="squeezenet")
        assert plan.num_stages == 1
        graph = plan.stage_graph(0, 1)
        assert len(graph.blocks) == len(squeezenet.blocks)


class TestStageGraphs:
    def test_stage_graphs_validate_and_cover_every_operator(self, squeezenet):
        plan = partition_graph(squeezenet, 3, model="squeezenet")
        op_names: list[str] = []
        for index in range(plan.num_stages):
            graph = plan.stage_graph(index, 2)
            validate_graph(graph)
            assert len(graph.placeholders) == 1
            op_names.extend(op.name for op in graph.operators())
        assert sorted(op_names) == sorted(op.name for op in squeezenet.operators())

    def test_recv_placeholder_keeps_the_producer_name(self, squeezenet):
        plan = partition_graph(squeezenet, 2, model="squeezenet")
        stage1 = plan.stage_graph(1, 1)
        assert stage1.placeholders[0].name == plan.stages[1].input_node

    def test_recv_bytes_match_the_boundary_tensor(self, squeezenet):
        plan = partition_graph(squeezenet, 2, model="squeezenet")
        boundary = squeezenet.nodes[plan.stages[1].input_node]
        assert plan.stages[1].recv_bytes == boundary.output_shape.with_batch(1).bytes()

    def test_stage_graphs_compile(self, squeezenet):
        plan = partition_graph(squeezenet, 2, model="squeezenet")
        engine = Engine("k80")
        for index in range(plan.num_stages):
            compiled = engine.compile(plan.stage_graph(index, 1))
            assert compiled.latency_ms() > 0

    def test_graph_builder_resolves_stage_models_and_the_zoo(self, squeezenet):
        plan = partition_graph(squeezenet, 2, model="squeezenet")
        build = plan.graph_builder()
        stage_model = plan.stages[1].model
        assert build(stage_model, 1).name == stage_model
        # Anything else falls through to the registered model zoo.
        assert len(build("squeezenet", 1).blocks) == len(squeezenet.blocks)
