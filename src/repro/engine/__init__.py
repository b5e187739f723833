"""repro.engine — one compile pipeline (Engine → CompiledModel) behind every entry point.

Every path that turns a graph into a measured schedule — CLI figure runs,
``ios-bench serve``, the frameworks' IOS engine, the serve registry's
compile-on-miss — goes through one explicit staged pipeline::

    Graph --[passes]--> optimized Graph --[schedule]--> Schedule
          --[lower]--> ExecutionPlan

* :mod:`repro.engine.engine` — :class:`Engine` (the pipeline driver with a
  fingerprint-keyed compile cache) and :func:`get_engine` (a process-wide
  engine pool shared by the experiments and the CLI);
* :mod:`repro.engine.compiled` — :class:`CompiledModel` (all artifacts of one
  compilation: graph, schedule, execution plan, per-stage
  :class:`CompileStats`) with full-artifact ``save()``/``load()`` so warm
  starts perform **zero** scheduler searches;
* :mod:`repro.engine.stages` — the individual stage helpers
  (:func:`apply_passes` is also what ``load(..., optimize=True)`` runs).

Quick start::

    from repro.engine import Engine
    from repro.frontend import load

    engine = Engine("v100", passes=True)            # fix the environment once
    compiled = engine.compile(load("inception_v3"))
    print(compiled.latency_ms(), compiled.throughput())
    print(compiled.stats.describe())                # per-stage timing
    compiled.save("inception.compiled.json")        # warm-start artifact

    warm = Engine("v100", passes=True)
    warm.load("inception.compiled.json")            # zero scheduler searches

The DP search itself is :meth:`repro.core.IOSScheduler.optimize_graph`;
:meth:`Engine.compile` wraps it with the passes and lowering stages, the
compile cache and the compile statistics.
"""

from ..core.dp_scheduler import (
    UnknownVariantError,
    VALID_VARIANTS,
    normalize_variant,
    variant_label,
)
from .compiled import ARTIFACT_FORMAT, BlockRecord, CompiledModel, CompileStats, StageTiming
from .engine import Engine, EngineStats, clear_engine_pool, get_engine, get_engines
from .stages import apply_passes, block_digest, graph_identity, node_digest

__all__ = [
    "Engine",
    "EngineStats",
    "BlockRecord",
    "CompiledModel",
    "CompileStats",
    "StageTiming",
    "ARTIFACT_FORMAT",
    "get_engine",
    "get_engines",
    "clear_engine_pool",
    "apply_passes",
    "block_digest",
    "graph_identity",
    "node_digest",
    "normalize_variant",
    "variant_label",
    "UnknownVariantError",
    "VALID_VARIANTS",
]
