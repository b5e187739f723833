"""repro — a reproduction of *IOS: Inter-Operator Scheduler for CNN Acceleration* (MLSys 2021).

The package is organised as:

* :mod:`repro.ir` — computation-graph IR (shape-annotated operators, blocks,
  canonical graph fingerprints);
* :mod:`repro.passes` — graph-rewriting optimization pipeline (activation
  fusion, CSE, dead-code elimination, canonicalization) run before scheduling;
* :mod:`repro.hardware` — simulated GPUs, kernel model, multi-stream contention;
* :mod:`repro.runtime` — execution engine, profiler, warp tracer, memory planner;
* :mod:`repro.models` — CNN model zoo (Inception V3, RandWire, NasNet-A, SqueezeNet, ...);
* :mod:`repro.core` — the IOS dynamic-programming scheduler and baselines;
* :mod:`repro.engine` — the staged compile pipeline (``Engine`` →
  ``CompiledModel``) every entry point funnels through: passes → DP search →
  lowering, with a fingerprint-keyed cache and serializable artifacts;
* :mod:`repro.frameworks` — simulated baseline frameworks (TF, XLA, TASO, TVM, TensorRT);
* :mod:`repro.experiments` — one harness per table/figure of the paper;
* :mod:`repro.serve` — batch-aware inference serving: persistent compiled-model
  registry, dynamic batcher, heterogeneous device fleets with pluggable
  routing, simulated worker pool, synthetic traffic;
* :mod:`repro.cluster` — multi-host serving: co-simulated hosts behind
  cluster routers, graph partitioning across memory-bound hosts, modeled
  inter-host link transfers;
* :mod:`repro.frontend` — model importers (ONNX-subset JSON, layer-config)
  and :func:`repro.frontend.load`, the one API every model source — zoo
  name, model file, parsed dict — goes through.

Quick start::

    from repro import Engine, load

    compiled = Engine("v100").compile(load("inception_v3", batch_size=1))
    print(compiled.latency_ms())
"""

from .ir import Graph, GraphBuilder, TensorShape
from .hardware import DeviceSpec, get_device, list_devices
from .models import BENCHMARK_MODELS, list_models
from .core import (
    IOSScheduler,
    ParallelizationStrategy,
    PruningStrategy,
    Schedule,
    SchedulerConfig,
    SimulatedCostModel,
    greedy_schedule,
    measure_schedule,
    normalize_variant,
    schedule_latency_ms,
    sequential_schedule,
)
from .engine import CompiledModel, Engine, get_engine
from .frontend import load

__version__ = "2.0.0"

__all__ = [
    "TensorShape",
    "Graph",
    "GraphBuilder",
    "DeviceSpec",
    "get_device",
    "list_devices",
    "load",
    "list_models",
    "BENCHMARK_MODELS",
    "Schedule",
    "ParallelizationStrategy",
    "PruningStrategy",
    "SchedulerConfig",
    "SimulatedCostModel",
    "IOSScheduler",
    "sequential_schedule",
    "greedy_schedule",
    "measure_schedule",
    "schedule_latency_ms",
    "normalize_variant",
    "Engine",
    "CompiledModel",
    "get_engine",
    "optimize",
    "__version__",
]


def optimize(
    graph: Graph,
    device: DeviceSpec,
    variant: str = "ios-both",
    pruning: PruningStrategy | None = None,
) -> Schedule:
    """One-call convenience wrapper: compile ``graph`` and return its schedule.

    Delegates to the pooled :class:`repro.engine.Engine` for
    ``(device, variant, pruning)``, so repeated calls on the same structure
    reuse the compile cache.  Prefer ``Engine.compile`` directly when you also
    want the execution plan, the latency or the compile stats.

    Parameters
    ----------
    graph:
        The computation graph to schedule (see :func:`repro.frontend.load`).
    device:
        The simulated device to optimise for (see :func:`repro.hardware.get_device`).
    variant:
        ``"ios-both"`` (default), ``"ios-parallel"`` or ``"ios-merge"``.
    pruning:
        Optional ``(r, s)`` pruning strategy; defaults to the paper's r=3, s=8.
    """
    return get_engine(device, variant=variant, pruning=pruning).compile(graph).schedule
