"""Individual stages of the compile pipeline.

The engine turns a graph into a running model in explicit stages::

    Graph --[passes]--> optimized Graph --[schedule]--> Schedule
          --[lower]--> ExecutionPlan

Each helper here implements one stage as a plain function so the stages are
individually reusable: :func:`repro.frontend.load` runs the pass stage on
its own (``load(..., optimize=True)``), and :class:`repro.engine.Engine`
chains all of them with per-stage timing.
"""

from __future__ import annotations

import hashlib

from ..ir.graph import Block, Graph

__all__ = ["apply_passes", "node_digest", "block_digest", "graph_identity"]


def apply_passes(graph: Graph, passes, *, tracer=None) -> tuple[Graph, list | None]:
    """The pass stage: optionally rewrite ``graph`` before scheduling.

    ``passes`` follows the convention used everywhere in the system: ``False``
    / ``None`` skips rewriting (the graph is returned unchanged), ``True``
    runs :func:`repro.passes.default_pipeline`, and a
    :class:`~repro.passes.PassManager` (or list of pass names) runs that
    pipeline instead.  Returns ``(graph, pass_stats)`` where ``pass_stats`` is
    ``None`` when no pipeline ran.  A truthy ``tracer`` records one span per
    pipeline iteration on the ``compile/passes`` track.

    Results are memoised per graph fingerprint by
    :func:`repro.passes.optimize_graph`, so repeated calls on the same
    structure are cheap.
    """
    if passes is None or passes is False:
        return graph, None
    # Imported lazily so the engine stays importable without repro.passes.
    from ..passes import optimize_graph

    pipeline = None if passes is True else passes
    result = optimize_graph(graph, pipeline, tracer=tracer)
    return result.graph, result.stats


def node_digest(graph: Graph) -> str:
    """Stable short digest of the graph's node names (insertion order).

    :func:`repro.ir.graph_fingerprint` is deliberately rename-invariant, but
    schedules reference operators *by name* — so a compile cache (or a
    persisted artifact) must also key on the names.  This digest is stable
    across processes, unlike ``hash()``.
    """
    payload = "\n".join(graph.nodes)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def block_digest(graph: Graph, block: Block) -> str:
    """Stable, *name-sensitive* digest of one block of a graph.

    Covers everything a block's stage schedule can depend on: the schedulable
    operator names (schedules reference operators by name), their kinds and
    attributes, local wiring, the shapes of inputs arriving from outside the
    block, and output shapes.  Two blocks with equal digests are guaranteed to
    have identical optimal schedules *verbatim* — which is what lets the
    engine's incremental path splice a prior compile's stages for unchanged
    blocks without renaming anything.
    """
    op_names = graph.schedulable_names(block)
    block_set = set(op_names)
    lines = []
    for name in graph.topological_order(list(op_names)):
        op = graph.nodes[name]
        inputs = ",".join(
            p if p in block_set else f"ext:{graph.nodes[p].output_shape}"
            for p in op.inputs
        )
        attrs = ";".join(f"{k}={v}" for k, v in sorted(op.attrs().items()))
        lines.append(f"{name}|{op.kind}|{attrs}|{inputs}|{op.output_shape}")
    payload = "\n".join(lines)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def graph_identity(graph: Graph) -> tuple[str, str, str]:
    """Cache identity of a graph: ``(name, node digest, structural fingerprint)``.

    Two graphs with equal identity have the same name, the same operator
    names in the same order, and isomorphic structure — a compiled model for
    one is valid verbatim for the other.
    """
    return (graph.name, node_digest(graph), graph.fingerprint())
