"""The one model-source API: ``load(source)``.

Every model source goes through :func:`load`.  It accepts

* a registered zoo model name (``"inception_v3"``),
* a filesystem path to a JSON model file (ONNX-subset, layer-config, or a
  graph serialised by :func:`repro.ir.save_graph`),
* an already-parsed dictionary in any of those formats, or
* a built :class:`~repro.ir.Graph` (returned as-is, re-batched if asked),

and always returns the same validated :class:`~repro.ir.Graph` the rest of
the stack (passes, engine, serving) consumes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..ir.graph import Graph
from ..ir.serialization import graph_from_dict
from .layer_config import import_layer_config
from .onnx_bridge import FrontendError, import_onnx

__all__ = ["detect_format", "load"]


def detect_format(data: dict[str, Any]) -> str:
    """Classify a parsed model dictionary: onnx-subset, layer-config or ir-graph."""
    declared = data.get("ir") or data.get("format")
    if declared in ("onnx-subset", "layer-config", "ir-graph"):
        return str(declared)
    if "layers" in data:
        return "layer-config"
    nodes = data.get("nodes")
    if isinstance(nodes, list) and nodes:
        first = nodes[0]
        if isinstance(first, dict) and "op_type" in first:
            return "onnx-subset"
        if isinstance(first, dict) and "kind" in first:
            return "ir-graph"
    raise FrontendError(
        "cannot detect model format: expected an ONNX-subset dict (nodes with "
        "'op_type'), a layer-config dict ('layers'), or a serialised IR graph "
        "(nodes with 'kind')"
    )


def _import_dict(data: dict[str, Any], name: str | None) -> Graph:
    fmt = detect_format(data)
    if fmt == "onnx-subset":
        return import_onnx(data, name=name)
    if fmt == "layer-config":
        return import_layer_config(data, name=name)
    return graph_from_dict(data)


def _looks_like_path(source: str) -> bool:
    return (
        source.endswith(".json")
        or "/" in source
        or "\\" in source
        or Path(source).is_file()
    )


def load(
    source: str | Path | dict[str, Any] | Graph,
    batch_size: int | None = None,
    optimize: bool | None = None,
    name: str | None = None,
    **kwargs: Any,
) -> Graph:
    """Load a model from any supported source and return a validated graph.

    Parameters
    ----------
    source:
        Zoo model name, path to a JSON model description, parsed model
        dictionary, or an already-built graph.
    batch_size:
        Re-batch the result to this batch size.  For zoo names the builder
        receives it directly (default 1); for imported/serialised models the
        graph is cloned via :meth:`Graph.with_batch_size` when it differs
        from the declared batch.
    optimize:
        ``True`` runs the default pass pipeline on the result (exactly what
        ``Engine(passes=True)`` would do); ``None`` defers to the
        process-wide default of :func:`repro.models.set_default_optimize`.
    name:
        Override the graph name for imported sources.
    kwargs:
        Extra keyword arguments for zoo builders (ignored otherwise).
    """
    from ..models import common as zoo

    graph: Graph
    if isinstance(source, Graph):
        graph = source
    elif isinstance(source, dict):
        graph = _import_dict(source, name)
    elif isinstance(source, Path) or (isinstance(source, str) and _looks_like_path(str(source))):
        path = Path(source)
        if not path.is_file():
            raise FrontendError(f"model file {str(path)!r} does not exist")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FrontendError(f"model file {str(path)!r} is not valid JSON: {exc}") from exc
        graph = _import_dict(data, name or path.stem)
    elif isinstance(source, str):
        graph = zoo.resolve_zoo_builder(source)(batch_size=batch_size or 1, **kwargs)
    else:
        raise TypeError(f"cannot load a model from {type(source).__name__}")

    if batch_size is not None and graph.input_shape.batch != batch_size:
        graph = graph.with_batch_size(batch_size)
    if optimize is None:
        optimize = zoo.default_optimize()
    if optimize:
        from ..engine.stages import apply_passes

        graph, _ = apply_passes(graph, True)
    return graph
