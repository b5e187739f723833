"""Pass-pipeline ablation: scheduling raw vs. rewrite-optimised graphs.

The rewrite pipeline of :mod:`repro.passes` is the compiler stage between the
IR and the DP search: it folds standalone activations into the compound
schedule units of Table 2, deduplicates common subexpressions and removes
plumbing, *before* placement.  This ablation quantifies what that buys for
each model:

* **fewer schedulable operators** — smaller blocks, exponentially fewer DP
  subsets to enumerate;
* **reduced scheduler search time / transitions** — the direct consequence;
* **no-worse scheduled latency** — the optimised graph launches fewer
  kernels, so the best schedule found can only improve.

The "raw" graph is the unfused frontend form produced by
:func:`repro.passes.unfuse_activations` — what an importer that does not fuse
activations would hand the scheduler.  Per-pass ``PassManager`` statistics
(rewrites applied, time spent) are reported as extra ``pass:`` rows so the
CSV carries the full pipeline breakdown.
"""

from __future__ import annotations

import gc
from typing import Sequence

from ..engine import Engine
from ..hardware.device import get_device
from ..frontend import load
from ..passes import default_pipeline, unfuse_activations
from .tables import ExperimentTable

__all__ = ["run_pass_ablation"]

#: Models the ablation sweeps by default (the acceptance pair of the paper's
#: main case studies: Conv-Relu heavy and Relu-SepConv heavy).
DEFAULT_MODELS = ("inception_v3", "nasnet_a")


def run_pass_ablation(
    device: str = "v100",
    models: Sequence[str] = DEFAULT_MODELS,
    batch_size: int = 1,
    variant: str = "ios-both",
) -> ExperimentTable:
    """Schedule each model's raw and pass-optimised graph and compare."""
    spec = get_device(device)
    table = ExperimentTable(
        experiment_id="ablation_passes",
        title=f"Pass-pipeline ablation on {device} (batch size {batch_size})",
        columns=[
            "model", "graph", "operators", "latency_ms", "search_s",
            "transitions", "rewrites", "pass_time_s",
        ],
        notes="'raw' is the unfused frontend graph; 'optimized' ran the default "
        "repro.passes pipeline first; 'pass:*' rows break the pipeline down "
        "per pass (rewrites applied and time spent, summed over iterations)",
    )
    for model in models:
        raw = unfuse_activations(load(model, batch_size=batch_size, optimize=False))
        pass_result = default_pipeline().run(raw)
        variants = [
            ("raw", raw, 0, 0.0),
            ("optimized", pass_result.graph, pass_result.total_rewrites,
             pass_result.elapsed_s),
        ]
        for label, graph, rewrites, pass_time_s in variants:
            compiled = _timed_compile(Engine(spec, variant=variant), graph)
            search = compiled.schedule_result()
            table.add_row(
                model=model,
                graph=label,
                operators=len(graph.schedulable_names()),
                latency_ms=compiled.latency_ms(),
                search_s=search.elapsed_s,
                transitions=search.total_transitions,
                rewrites=rewrites,
                pass_time_s=pass_time_s,
            )
        for stat in pass_result.stats:
            table.add_row(
                model=model,
                graph=f"pass:{stat.name}",
                rewrites=stat.rewrites,
                pass_time_s=stat.elapsed_s,
            )
    return table


def _timed_compile(engine: Engine, graph):
    """Compile ``graph`` with a full search and the cyclic GC paused, as ``timeit`` does.

    Each row gets a fresh engine and bypasses the process-wide schedule memo,
    so ``search_s`` always times a real search; a collection landing inside a
    millisecond-scale search would otherwise dominate it.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return engine.compile(graph, use_cache=False)
    finally:
        if was_enabled:
            gc.enable()
