"""ONNX-subset importer: bridges, blocks, opaque degradation, round-trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.frontend import FrontendError, import_onnx, load
from repro.ir import graph_fingerprint
from repro.ir.serialization import graph_from_dict, graph_to_dict

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _simple_mlp(extra_nodes=(), extra_inits=(), blocks=None):
    """A minimal valid document: one projection + relu, easily extended."""
    doc = {
        "ir": "onnx-subset",
        "name": "mlp",
        "inputs": [{"name": "x", "shape": [8, 32]}],
        "initializers": [{"name": "w0", "shape": [32, 16]}, *extra_inits],
        "nodes": [
            {"name": "fc0", "op_type": "MatMul", "inputs": ["x", "w0"]},
            {"name": "act0", "op_type": "Relu", "inputs": ["fc0"]},
            *extra_nodes,
        ],
    }
    if blocks is not None:
        doc["blocks"] = blocks
    return doc


class TestBridges:
    def test_matmul_with_initializer_becomes_projection(self):
        graph = import_onnx(_simple_mlp())
        fc0 = graph.nodes["fc0"]
        assert fc0.kind == "matmul"
        assert fc0.is_projection
        assert fc0.attrs()["weight_id"] == "w0"
        assert fc0.output_shape.channels == 16
        assert fc0.weight_count() == 32 * 16 + 16

    def test_matmul_of_two_activations_is_weightless(self):
        doc = {
            "ir": "onnx-subset",
            "name": "scores",
            "inputs": [{"name": "x", "shape": [8, 32]}],
            "initializers": [],
            "nodes": [
                {"name": "xT", "op_type": "Transpose", "inputs": ["x"],
                 "attrs": {"perm": [1, 0]}},
                {"name": "gram", "op_type": "MatMul", "inputs": ["x", "xT"]},
            ],
        }
        graph = import_onnx(doc)
        gram = graph.nodes["gram"]
        assert not gram.is_projection
        assert gram.weight_count() == 0
        assert (gram.output_shape.batch, gram.output_shape.channels) == (8, 8)

    def test_weight_first_matmul_is_rejected(self):
        doc = _simple_mlp()
        doc["nodes"][0]["inputs"] = ["w0", "x"]
        with pytest.raises(FrontendError, match="weight-first"):
            import_onnx(doc)

    def test_gemm_respects_transB(self):
        doc = {
            "ir": "onnx-subset",
            "name": "gemm",
            "inputs": [{"name": "x", "shape": [4, 32]}],
            "initializers": [{"name": "w", "shape": [16, 32]},
                             {"name": "b", "shape": [16]}],
            "nodes": [{"name": "fc", "op_type": "Gemm",
                       "inputs": ["x", "w", "b"], "attrs": {"transB": 1}}],
        }
        graph = import_onnx(doc)
        assert graph.nodes["fc"].output_shape.channels == 16

    def test_initializer_bias_add_folds_into_projection(self):
        doc = _simple_mlp(
            extra_nodes=[
                {"name": "biased", "op_type": "Add", "inputs": ["act0", "b0"]},
                {"name": "out", "op_type": "Relu", "inputs": ["biased"]},
            ],
            extra_inits=[{"name": "b0", "shape": [16]}],
        )
        # The fold only fires when the producer is a projection, so hang the
        # Add off fc0 directly instead of the relu.
        doc["nodes"][2]["inputs"] = ["fc0", "b0"]
        doc["nodes"][3]["inputs"] = ["biased"]
        graph = import_onnx(doc)
        assert "biased" not in graph.nodes
        assert graph.nodes["out"].inputs == ("fc0",)

    def test_add_of_activation_and_2d_initializer_is_rejected(self):
        doc = _simple_mlp(
            extra_nodes=[{"name": "bad", "op_type": "Add", "inputs": ["act0", "m"]}],
            extra_inits=[{"name": "m", "shape": [8, 16]}],
        )
        with pytest.raises(FrontendError, match="unsupported operand mix"):
            import_onnx(doc)

    def test_dropout_and_identity_alias_through(self):
        doc = _simple_mlp(extra_nodes=[
            {"name": "drop", "op_type": "Dropout", "inputs": ["act0"]},
            {"name": "ident", "op_type": "Identity", "inputs": ["drop"]},
            {"name": "out", "op_type": "Softmax", "inputs": ["ident"]},
        ])
        graph = import_onnx(doc)
        assert "drop" not in graph.nodes and "ident" not in graph.nodes
        assert graph.nodes["out"].inputs == ("act0",)

    def test_conv_bridge_builds_a_cnn(self):
        doc = {
            "ir": "onnx-subset",
            "name": "tiny_cnn",
            "inputs": [{"name": "image", "shape": [1, 3, 32, 32]}],
            "initializers": [{"name": "w", "shape": [8, 3, 3, 3]}],
            "nodes": [
                {"name": "conv", "op_type": "Conv", "inputs": ["image", "w"],
                 "attrs": {"pads": [1, 1, 1, 1]}},
                {"name": "act", "op_type": "Relu", "inputs": ["conv"]},
                {"name": "pool", "op_type": "MaxPool", "inputs": ["act"],
                 "attrs": {"kernel_shape": [2, 2], "strides": [2, 2]}},
                {"name": "gap", "op_type": "GlobalAveragePool", "inputs": ["pool"]},
                {"name": "flat", "op_type": "Flatten", "inputs": ["gap"]},
            ],
        }
        graph = import_onnx(doc)
        assert graph.nodes["conv"].output_shape.dims() == (1, 8, 32, 32)
        assert graph.nodes["pool"].output_shape.dims() == (1, 8, 16, 16)
        assert graph.nodes["flat"].output_shape.dims() == (1, 8)

    def test_asymmetric_conv_padding_is_rejected(self):
        doc = {
            "ir": "onnx-subset",
            "name": "bad_conv",
            "inputs": [{"name": "image", "shape": [1, 3, 32, 32]}],
            "initializers": [{"name": "w", "shape": [8, 3, 3, 3]}],
            "nodes": [{"name": "conv", "op_type": "Conv", "inputs": ["image", "w"],
                       "attrs": {"pads": [0, 0, 1, 1]}}],
        }
        with pytest.raises(FrontendError, match="symmetric"):
            import_onnx(doc)

    def test_non_trailing_transpose_degrades_to_opaque(self):
        doc = {
            "ir": "onnx-subset",
            "name": "perm",
            "inputs": [{"name": "x", "shape": [1, 3, 8, 8]}],
            "initializers": [],
            "nodes": [{"name": "t", "op_type": "Transpose", "inputs": ["x"],
                       "attrs": {"perm": [0, 2, 3, 1]}}],
        }
        graph = import_onnx(doc)
        assert graph.nodes["t"].kind == "opaque"


class TestImportStructure:
    def test_nodes_out_of_topological_order_are_rejected(self):
        doc = _simple_mlp()
        doc["nodes"].reverse()
        with pytest.raises(FrontendError, match="topological"):
            import_onnx(doc)

    def test_two_graph_inputs_are_rejected(self):
        doc = _simple_mlp()
        doc["inputs"].append({"name": "y", "shape": [8, 32]})
        with pytest.raises(FrontendError, match="exactly one"):
            import_onnx(doc)

    def test_empty_model_is_rejected(self):
        doc = _simple_mlp()
        doc["nodes"] = []
        with pytest.raises(FrontendError, match="no nodes"):
            import_onnx(doc)

    def test_null_op_type_is_rejected_naming_node_and_field(self):
        doc = _simple_mlp()
        doc["nodes"][1]["op_type"] = None
        with pytest.raises(FrontendError, match="node 'act0': field 'op_type'"):
            import_onnx(doc)

    def test_null_inputs_are_rejected_naming_node_and_field(self):
        doc = _simple_mlp()
        doc["nodes"][1]["inputs"] = None
        with pytest.raises(FrontendError, match="node 'act0': field 'inputs'"):
            import_onnx(doc)

    def test_non_object_attrs_are_rejected_naming_node_and_field(self):
        doc = _simple_mlp()
        doc["nodes"][1]["attrs"] = "garbage"
        with pytest.raises(FrontendError, match="node 'act0': field 'attrs'"):
            import_onnx(doc)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("initializers", [{"shape": [32, 16]}], r"initializer #0 .*field 'name'"),
            ("initializers", [{"name": "w0", "shape": None}], r"initializer 'w0': field 'shape'"),
            ("initializers", [{"name": "w0", "shape": ["a", 16]}],
             r"initializer 'w0': field 'shape'"),
            ("initializers", 7, r"field 'initializers' must be a list"),
            ("blocks", ["main"], r"block #0 \('main'\): field 'name'"),
            ("blocks", [{"nodes": ["fc0", "act0"]}], r"block #0 .*field 'name'"),
            ("blocks", [{"name": "main", "nodes": 3}], r"block 'main': field 'nodes'"),
            ("blocks", "main", r"field 'blocks' must be a list"),
        ],
        ids=[
            "initializer-without-name", "null-shape", "non-integer-dims",
            "initializers-not-a-list", "block-not-an-object", "block-without-name",
            "block-nodes-not-a-list", "blocks-not-a-list",
        ],
    )
    def test_malformed_initializers_and_blocks_name_the_field(self, field, value, match):
        doc = _simple_mlp()
        doc[field] = value
        with pytest.raises(FrontendError, match=match):
            import_onnx(doc)

    def test_default_is_a_single_main_block(self):
        graph = import_onnx(_simple_mlp())
        assert [b.name for b in graph.blocks] == ["main"]
        assert set(graph.blocks[0].node_names) == {"fc0", "act0"}

    def test_declared_blocks_are_honoured_and_empty_ones_pruned(self):
        doc = _simple_mlp(blocks=[
            {"name": "proj", "nodes": ["fc0"]},
            {"name": "act", "nodes": ["act0"]},
            {"name": "ghost", "nodes": []},
        ])
        graph = import_onnx(doc)
        assert [b.name for b in graph.blocks] == ["proj", "act"]

    def test_node_missing_from_every_block_is_rejected(self):
        doc = _simple_mlp(blocks=[{"name": "proj", "nodes": ["fc0"]}])
        with pytest.raises(FrontendError, match="not assigned to any block"):
            import_onnx(doc)

    def test_name_override_wins_over_declared_name(self):
        assert import_onnx(_simple_mlp(), name="renamed").name == "renamed"


class TestOpaqueDegradation:
    def _rotary_doc(self, attrs=None):
        return {
            "ir": "onnx-subset",
            "name": "with_unknown",
            "inputs": [{"name": "x", "shape": [8, 64]}],
            "initializers": [{"name": "w", "shape": [64, 64]}],
            "nodes": [
                {"name": "proj", "op_type": "MatMul", "inputs": ["x", "w"]},
                {"name": "rope", "op_type": "RotaryEmbedding",
                 "inputs": ["proj"], "attrs": dict(attrs or {})},
                {"name": "out", "op_type": "Softmax", "inputs": ["rope"]},
            ],
        }

    def test_unknown_op_imports_as_opaque(self):
        graph = import_onnx(self._rotary_doc())
        rope = graph.nodes["rope"]
        assert rope.kind == "opaque"
        assert rope.attrs()["op_type"] == "RotaryEmbedding"
        # Shape-preserving fallback over the first activation input.
        assert rope.output_shape == graph.nodes["proj"].output_shape

    def test_declared_shape_and_flops_are_used(self):
        graph = import_onnx(self._rotary_doc(
            attrs={"shape": [8, 64], "flops": 4096}
        ))
        assert graph.nodes["rope"].flops() == 4096

    def test_declared_flops_scale_with_rebatching(self):
        graph = import_onnx(self._rotary_doc(attrs={"shape": [8, 64], "flops": 4096}))
        doubled = graph.with_batch_size(16)
        assert doubled.nodes["rope"].flops() == 8192

    def test_digest_distinguishes_differently_configured_nodes(self):
        g1 = import_onnx(self._rotary_doc(attrs={"theta": 10000}))
        g2 = import_onnx(self._rotary_doc(attrs={"theta": 500000}))
        assert g1.nodes["rope"].attrs()["digest"] != g2.nodes["rope"].attrs()["digest"]
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_opaque_graph_compiles_and_serves(self, v100):
        from repro.engine import Engine
        from repro.serve import ScheduleRegistry

        doc = self._rotary_doc()
        compiled = Engine(v100).compile(import_onnx(doc))
        assert any("rope" in stage.operators for stage in compiled.schedule.stages)
        registry = ScheduleRegistry(graph_builder=lambda model, bs: load(doc, batch_size=bs))
        assert registry.get("with_unknown", 4, v100).num_stages() > 0


class TestRoundTrips:
    def test_example_transformer_round_trips_fingerprint_stable(self):
        data = json.loads((EXAMPLES / "transformer_block.json").read_text())
        graph = import_onnx(data)
        reloaded = graph_from_dict(graph_to_dict(graph))
        assert graph_fingerprint(reloaded) == graph_fingerprint(graph)
        assert graph_fingerprint(import_onnx(data)) == graph_fingerprint(graph)

    def test_example_file_and_zoo_name_build_the_same_graph(self):
        from_file = load(EXAMPLES / "transformer_block.json")
        from_zoo = load("transformer_block")
        assert graph_fingerprint(from_file) == graph_fingerprint(from_zoo)

    def test_example_transformer_validates_shapes(self):
        graph = load(EXAMPLES / "transformer_block.json")
        rows, hidden = graph.input_shape.batch, graph.input_shape.channels
        assert graph.nodes["scores0"].output_shape.dims() == (rows, rows)
        assert graph.nodes["ln_out"].output_shape.dims() == (rows, hidden)

    def test_rebatching_an_imported_graph_rescales_every_shape(self):
        graph = load(EXAMPLES / "transformer_block.json", batch_size=8)
        assert graph.input_shape.batch == 8
        assert graph.nodes["scores0"].output_shape.dims() == (8, 8)
