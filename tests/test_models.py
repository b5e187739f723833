"""Unit tests for the model zoo."""

from __future__ import annotations

import pytest

from repro.frontend import load
from repro.ir import Conv2d, SeparableConv2d, validate_graph
from repro.models import (
    BENCHMARK_MODELS,
    INCEPTION_BLOCK_NAMES,
    MODEL_REGISTRY,
    chain_graph,
    diamond_graph,
    figure2_block,
    figure3_graph,
    figure5_graph,
    list_models,
    parallel_chains_graph,
)
from repro.models.randwire import random_dag_edges


class TestRegistry:
    def test_benchmark_models_registered(self):
        assert set(BENCHMARK_MODELS) <= set(list_models())

    def test_aliases(self):
        assert load("InceptionV3").name == "inception_v3"
        assert load("nasnet").name == "nasnet_a"
        assert load("resnet50").name == "resnet_50"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            load("transformer_xxl")

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_every_registered_model_builds_and_validates(self, name):
        graph = load(name, batch_size=1)
        validate_graph(graph)
        assert graph.total_flops() > 0
        assert len(graph.operators()) >= 4

    def test_batch_size_parameter(self):
        graph = load("squeezenet", batch_size=16)
        assert graph.batch_size == 16


class TestToyGraphs:
    def test_figure2_block_matches_paper_workloads(self):
        graph = figure2_block()
        # Conv [a] and [c]: ~0.6 GFLOPs, conv [b] and [d]: ~1.2 GFLOPs.
        assert graph.nodes["conv_a"].flops() / 1e9 == pytest.approx(0.6, rel=0.05)
        assert graph.nodes["conv_b"].flops() / 1e9 == pytest.approx(1.2, rel=0.05)
        # Concat output has 1920 channels as annotated in the figure.
        assert graph.nodes["concat"].output_shape.channels == 1920
        # Dependency structure: b depends on a, c and d depend on the input.
        assert graph.predecessors("conv_b") == ("conv_a",)
        assert graph.predecessors("conv_c") == ("input",)

    def test_figure3_graph_structure(self):
        graph = figure3_graph()
        assert graph.nodes["conv_a"].inputs == graph.nodes["conv_b"].inputs == ("input",)
        assert graph.predecessors("matmul_e") == ("conv_b",)
        assert graph.predecessors("conv_d") == ("conv_c",)

    def test_figure5_graph_structure(self):
        graph = figure5_graph()
        assert graph.predecessors("conv_b") == ("conv_a",)
        assert graph.predecessors("conv_c") == ("input",)

    def test_diamond_and_chain(self):
        assert len(diamond_graph().operators()) == 4
        assert len(chain_graph(length=6).operators()) == 6
        with pytest.raises(ValueError):
            chain_graph(length=0)

    def test_parallel_chains(self):
        graph = parallel_chains_graph(num_chains=3, chain_length=2, join=False)
        assert len(graph.operators()) == 6
        joined = parallel_chains_graph(num_chains=3, chain_length=2, join=True)
        assert len(joined.operators()) == 7
        with pytest.raises(ValueError):
            parallel_chains_graph(num_chains=0)


class TestInceptionV3:
    @pytest.fixture(scope="class")
    def graph(self):
        return load("inception_v3", batch_size=1)

    def test_size_close_to_reference(self, graph):
        # Real Inception V3: ~11.4 GFLOPs (batch 1, 299x299), ~23.8M parameters.
        assert graph.total_flops() / 1e9 == pytest.approx(11.4, rel=0.10)
        assert graph.total_params() / 1e6 == pytest.approx(23.8, rel=0.10)

    def test_eleven_inception_modules(self, graph):
        block_names = [b.name for b in graph.blocks]
        for name in INCEPTION_BLOCK_NAMES:
            assert name in block_names
        assert len(INCEPTION_BLOCK_NAMES) == 11

    def test_operator_count_near_paper(self, graph):
        assert 100 <= len(graph.operators()) <= 140  # paper: 119

    def test_final_block_has_mergeable_branches(self, graph):
        # The 1x3 / 3x1 pairs of the Inception-C block share an input (Figure 10).
        b3a = graph.nodes["mixed_7c_b3_1x3"]
        b3b = graph.nodes["mixed_7c_b3_3x1"]
        assert b3a.inputs == b3b.inputs
        assert b3a.merge_key() == b3b.merge_key()

    def test_spatial_pyramid(self, graph):
        assert graph.nodes["mixed_5b_concat"].output_shape.height == 35
        assert graph.nodes["mixed_6b_concat"].output_shape.height == 17
        assert graph.nodes["mixed_7c_concat"].output_shape.height == 8
        assert graph.nodes["mixed_7c_concat"].output_shape.channels == 2048


class TestSqueezeNet:
    def test_structure(self):
        graph = load("squeezenet")
        fire_blocks = [b for b in graph.blocks if b.name.startswith("fire")]
        assert len(fire_blocks) == 8
        assert len(graph.blocks) == 10
        # ~1.7 GFLOPs, ~1.2M parameters for SqueezeNet v1.0 at 224x224.
        assert graph.total_flops() / 1e9 == pytest.approx(1.7, rel=0.15)
        assert graph.total_params() / 1e6 == pytest.approx(1.25, rel=0.15)

    def test_fire_module_expands_share_input(self):
        graph = load("squeezenet")
        e1 = graph.nodes["fire5_expand1x1"]
        e3 = graph.nodes["fire5_expand3x3"]
        assert e1.inputs == e3.inputs
        assert e1.merge_key() == e3.merge_key()


class TestRandWire:
    def test_deterministic_wiring(self):
        a = load("randwire", seed=1)
        b = load("randwire", seed=1)
        assert [op.name for op in a.operators()] == [op.name for op in b.operators()]
        assert a.edges() == b.edges()

    def test_different_seed_changes_wiring(self):
        a = load("randwire", seed=1)
        c = load("randwire", seed=99)
        assert a.edges() != c.edges()

    def test_three_randomly_wired_stages(self):
        graph = load("randwire")
        stage_blocks = [b for b in graph.blocks if b.name.startswith("stage")]
        assert len(stage_blocks) == 3
        assert all(len(b) >= 20 for b in stage_blocks)

    def test_all_nodes_are_sepconv_or_aggregation(self):
        graph = load("randwire")
        for name in graph.blocks[1].node_names:  # stage1
            op = graph.nodes[name]
            assert op.kind in ("sep_conv2d", "add")

    def test_random_dag_edges_are_acyclic_by_construction(self):
        edges = random_dag_edges(20, 4, 0.75, seed=3)
        assert all(u < v for u, v in edges)
        with pytest.raises(ValueError):
            random_dag_edges(2, 4, 0.75, seed=3)


class TestNasNet:
    @pytest.fixture(scope="class")
    def graph(self):
        return load("nasnet_a", batch_size=1)

    def test_thirteen_cells(self, graph):
        cells = [b for b in graph.blocks if b.name.startswith("cell_")]
        assert len(cells) == 13
        reductions = [b for b in cells if "reduction" in b.name]
        assert len(reductions) == 2

    def test_sep_convs_dominate(self, graph):
        sep_convs = [op for op in graph.operators() if isinstance(op, SeparableConv2d)]
        dense_convs = [op for op in graph.operators() if isinstance(op, Conv2d)]
        assert len(sep_convs) > 60
        assert len(sep_convs) > len(dense_convs)

    def test_no_mergeable_operators_in_cells(self, graph):
        # "Relu-SepConv" units cannot be merged -> IOS-Merge degenerates to
        # Sequential on NasNet (Section 6.1).
        for op in graph.operators():
            if isinstance(op, SeparableConv2d):
                assert op.merge_key() is None


class TestResNetAndClassics:
    def test_resnet50_size(self):
        graph = load("resnet_50")
        assert graph.total_flops() / 1e9 == pytest.approx(8.2, rel=0.15)
        assert graph.total_params() / 1e6 == pytest.approx(25.5, rel=0.15)

    def test_resnet_variants_monotone_size(self):
        f18 = load("resnet_18").total_flops()
        f34 = load("resnet_34").total_flops()
        f50 = load("resnet_50").total_flops()
        assert f18 < f34
        assert f34 < f50 * 1.2

    def test_vgg16_is_conv_heavy(self):
        graph = load("vgg_16")
        assert graph.total_flops() / 1e9 == pytest.approx(31, rel=0.10)
        assert graph.total_params() / 1e6 == pytest.approx(138, rel=0.10)

    def test_alexnet_builds(self):
        graph = load("alexnet")
        assert graph.total_params() / 1e6 == pytest.approx(61, rel=0.15)
