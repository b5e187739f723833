"""Where the traced run cuts the program into layers, and what each layer moves.

:data:`TARGETS` lists the call sites the traced run wraps.  Each binding is
the one the program's callers look up at call time: a module attribute (a
function imported by name into its caller's module is wrapped in *that*
module), or a method, wrapped on its class and on every loaded subclass that
overrides it.  Several targets may share one layer; a layer's self time is
the time inside its spans not covered by a nested span.

:data:`LAYER_METRICS` is the per-layer half of the benchmark's contract: each
metric with its unit, the end-to-end metric it should move, and the workloads
it is measured on.  ``perfbench/run.py --describe`` prints the table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "TARGETS", "LAYERS", "LayerMetric", "LAYER_METRICS"]


@dataclass(frozen=True)
class Target:
    """One wrapped binding: ``module:attr`` or ``module:Class.method``."""

    layer: str
    spec: str
    #: ``span`` times each call (each ``next()`` for a generator function),
    #: ``count`` only counts calls.
    kind: str = "span"
    #: Counter bumped once per outermost call (per item for a generator).
    count: str | None = None
    #: ``extract(counts, args, result)`` records counts read off the call.
    extract: Callable[[Counter, tuple, Any], None] | None = None


def _pass_rewrites(counts: Counter, args: tuple, result: Any) -> None:
    _graph, pass_stats = result
    counts["passes.rewrites"] += sum(stats.rewrites for stats in pass_stats or ())


def _block_source(counts: Counter, args: tuple, result: Any) -> None:
    _stages, stats = result
    if stats.source in ("search", "parallel"):
        counts["core.block_searches"] += 1
    elif stats.source in ("memo", "block-cache"):
        # Reused without a search: from the process-wide schedule memo or
        # the scheduler's own cache of identical blocks.
        counts["core.memo_hits"] += 1


def _endings(counts: Counter, args: tuple, result: Any) -> None:
    counts["core.endings.yielded"] += len(result)


def _admission_verdict(counts: Counter, args: tuple, result: Any) -> None:
    if not result.admitted:
        counts["serve.admission.rejected"] += 1


def _alert_events(counts: Counter, args: tuple, result: Any) -> None:
    counts["obs.alerts.events"] += len(result)


TARGETS: tuple[Target, ...] = (
    # frontend: model loading and import (zoo builders, ONNX-subset JSON).
    Target("frontend.load", "repro.frontend:load"),
    Target("frontend.load", "repro.serve.registry:load"),
    Target("frontend.load", "repro.cluster.experiment:load"),
    Target("frontend.load", "repro.cluster.partition:load"),
    # passes: the rewrite pipeline, entered through the engine's pass stage.
    Target("passes.apply", "repro.engine.engine:apply_passes", count="passes.calls",
           extract=_pass_rewrites),
    Target("passes.apply", "repro.engine.stages:apply_passes", count="passes.calls",
           extract=_pass_rewrites),
    # engine: pipeline bookkeeping and schedule lowering.
    Target("engine.compile", "repro.engine.engine:Engine.compile"),
    Target("engine.lower", "repro.engine.engine:lower_schedule"),
    Target("engine.lower", "repro.engine.compiled:lower_schedule"),
    Target("engine.lower", "repro.serve.workers:lower_schedule"),
    # core: the DP search (its recursion is a closure inside optimize_block),
    # ending enumeration, and the memoised cost model.
    Target("core.dp", "repro.core.dp_scheduler:IOSScheduler.optimize_graph"),
    Target("core.dp", "repro.core.dp_scheduler:IOSScheduler.optimize_block",
           count="core.blocks", extract=_block_source),
    Target("core.endings", "repro.core.dp_scheduler:enumerate_endings",
           count="core.endings.calls", extract=_endings),
    Target("core.cost_model", "repro.core.cost_model:CostModel.generate_stage"),
    Target("core.cost_model", "repro.core.cost_model:CostModel.stage_latency",
           count="core.cost_model.calls"),
    Target("core.cost_model", "repro.core.cost_model:CostModel._measure_stage",
           kind="count", count="core.cost_model.measured"),
    # hardware: the contention simulator, at both of its call sites.
    Target("hardware.contention", "repro.runtime.executor:simulate_streams",
           count="hardware.contention.calls"),
    Target("hardware.contention", "repro.hardware.streams:simulate_streams",
           count="hardware.contention.calls"),
    # serve: one host's serving loop and the policies it calls.
    Target("serve.traffic", "repro.serve.traffic:TrafficGenerator.generate"),
    Target("serve.admission", "repro.serve.admission:AdmissionPolicy.admit",
           count="serve.admission.calls", extract=_admission_verdict),
    Target("serve.admission", "repro.serve.admission:AdmissionPolicy.preempts"),
    Target("serve.route", "repro.serve.fleet:Router.pick"),
    Target("serve.select", "repro.serve.batcher:BatchSizeSelector.select"),
    Target("serve.registry", "repro.serve.registry:ScheduleRegistry.get_compiled"),
    Target("serve.dispatch", "repro.serve.workers:WorkerPool.dispatch",
           count="serve.dispatch.calls"),
    Target("serve.loop", "repro.serve.loop:ServingLoop.run"),
    Target("serve.report", "repro.serve.service:build_report"),
    Target("serve.slo_summary", "repro.serve.metrics:build_slo_summary"),
    # obs: metric families (lookup and every update), windowed series on top
    # of them, alert evaluation, trace sampling and export.
    Target("obs.metrics", "repro.obs.metrics:MetricsRegistry.counter"),
    Target("obs.metrics", "repro.obs.metrics:MetricsRegistry.gauge"),
    Target("obs.metrics", "repro.obs.metrics:MetricsRegistry.histogram"),
    Target("obs.metrics", "repro.obs.metrics:Counter.inc"),
    Target("obs.metrics", "repro.obs.metrics:Gauge.set"),
    Target("obs.metrics", "repro.obs.metrics:Gauge.add"),
    Target("obs.metrics", "repro.obs.metrics:Histogram.observe"),
    Target("obs.timeseries", "repro.obs.timeseries:_WindowedFamily._window_record"),
    Target("obs.timeseries", "repro.obs.timeseries:TimeSeriesRegistry.advance"),
    Target("obs.timeseries", "repro.obs.timeseries:TimeSeriesRegistry.flush"),
    Target("obs.alerts", "repro.obs.alerts:AlertManager.evaluate",
           count="obs.alerts.evaluations", extract=_alert_events),
    Target("obs.sampling", "repro.obs.sampling:SamplingTracer.add_span"),
    Target("obs.sampling", "repro.obs.sampling:SamplingTracer.instant"),
    Target("obs.sampling", "repro.obs.sampling:SamplingTracer.counter"),
    Target("obs.sampling", "repro.obs.sampling:SamplingTracer.async_begin"),
    Target("obs.sampling", "repro.obs.sampling:SamplingTracer.async_end"),
    Target("obs.export", "repro.obs:write_chrome_trace"),
    # cluster: partitioning, host routing, link pricing, host loops driven
    # step by step, the cluster event loop and its report.
    Target("cluster.partition", "repro.cluster.experiment:partition_graph"),
    Target("cluster.route", "repro.cluster.router:ClusterRouter.pick"),
    Target("cluster.link", "repro.cluster.link:LinkModel.transfer_ms"),
    Target("cluster.link", "repro.cluster.link:LinkModel.ingress_ms"),
    Target("cluster.host_step", "repro.serve.loop:ServingLoop.begin"),
    Target("cluster.host_step", "repro.serve.loop:ServingLoop.inject"),
    Target("cluster.host_step", "repro.serve.loop:ServingLoop.step"),
    Target("cluster.host_step", "repro.serve.loop:ServingLoop.advance_to"),
    Target("cluster.host_step", "repro.serve.loop:ServingLoop.finish"),
    Target("cluster.loop", "repro.cluster.loop:ClusterLoop.run"),
    Target("cluster.report", "repro.cluster.experiment:build_report"),
)

#: Every layer, in table order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str
    on: str


_COMPILE = "compile-cold"
_SERVE = "serve-bursty, serve-observed"
_REPLAY = "serve-bursty, serve-observed, cluster-pipeline"
_CLUSTER = "cluster-pipeline"
_OBSERVED = "serve-observed"


def _time(layer: str, moves: str, on: str) -> LayerMetric:
    return LayerMetric(f"{layer}_s", "s", "lower", moves, on)


LAYER_METRICS: tuple[LayerMetric, ...] = (
    _time("frontend.load", "setup_s", _COMPILE),
    _time("passes.apply", "items_per_s", _COMPILE),
    LayerMetric("passes.rewrites", "count", "higher", "items_per_s", _COMPILE),
    _time("core.dp", "items_per_s", f"{_COMPILE}; setup_s on serve-* (ladder warmup)"),
    LayerMetric("core.block_searches", "count", "lower", "items_per_s", _COMPILE),
    LayerMetric("core.memo_hits", "count", "higher", "items_per_s", _COMPILE),
    _time("core.endings", "items_per_s", _COMPILE),
    LayerMetric("core.endings.yielded", "count", "lower", "items_per_s", _COMPILE),
    _time("core.cost_model", "items_per_s", _COMPILE),
    LayerMetric("core.cost_model.calls", "count", "lower", "items_per_s", _COMPILE),
    LayerMetric("core.cost_model.hit_ratio", "ratio", "higher", "items_per_s", _COMPILE),
    _time("hardware.contention", "items_per_s", _COMPILE),
    LayerMetric("hardware.contention.calls", "count", "lower", "items_per_s", _COMPILE),
    _time("engine.lower", "items_per_s", _COMPILE),
    _time("engine.compile", "items_per_s", _COMPILE),
    _time("serve.traffic", "items_per_s", _REPLAY),
    _time("serve.admission", "items_per_s", _SERVE),
    LayerMetric("serve.admission.rejected_share", "ratio", "lower",
                "items_per_s; result.attainment", _SERVE),
    _time("serve.route", "items_per_s", _SERVE),
    _time("serve.select", "items_per_s", _SERVE),
    _time("serve.registry", "items_per_s", _SERVE),
    LayerMetric("serve.registry.hit_ratio", "ratio", "higher", "items_per_s", _SERVE),
    _time("serve.dispatch", "items_per_s", _SERVE),
    LayerMetric("serve.dispatch.calls", "count", "lower", "items_per_s", _SERVE),
    _time("serve.loop", "items_per_s", _SERVE),
    _time("serve.report", "items_per_s, peak_rss_mb",
          "serve-bursty; predict no change from a per-burst fix on serve-observed"),
    _time("serve.slo_summary", "items_per_s, peak_rss_mb",
          "serve-bursty; predict no change from a per-burst fix on serve-observed"),
    _time("obs.metrics", "items_per_s", _REPLAY),
    _time("obs.timeseries", "items_per_s, peak_rss_mb",
          f"{_OBSERVED}; predict no change on serve-bursty"),
    _time("obs.alerts", "items_per_s", f"{_OBSERVED}; predict no change on serve-bursty"),
    LayerMetric("obs.alerts.events", "count", "lower", "items_per_s", _OBSERVED),
    _time("obs.sampling", "items_per_s, peak_rss_mb",
          f"{_OBSERVED}; predict no change on serve-bursty"),
    LayerMetric("obs.sampling.kept_ratio", "ratio", "lower", "peak_rss_mb", _OBSERVED),
    _time("obs.export", "items_per_s", f"{_OBSERVED}; predict no change on serve-bursty"),
    _time("cluster.partition", "setup_s", _CLUSTER),
    _time("cluster.route", "items_per_s", _CLUSTER),
    _time("cluster.link", "items_per_s", _CLUSTER),
    LayerMetric("cluster.transfers", "count", "lower", "items_per_s", _CLUSTER),
    _time("cluster.host_step", "items_per_s", _CLUSTER),
    _time("cluster.loop", "items_per_s", _CLUSTER),
    _time("cluster.report", "items_per_s", _CLUSTER),
    # The traced window as a whole.
    LayerMetric("trace.unaccounted_s", "s", "lower", "(self time outside every span)",
                "all"),
    LayerMetric("trace.wall_s", "s", "lower", "(traced wall time of set-up + timed phase)",
                "all"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "(traced wall / untraced wall of the same window)", "all"),
    # Virtual-clock results: deterministic per seed; a pure speed-up must
    # leave them byte-identical.
    LayerMetric("result.sched_latency_ms.nasnet_a", "sim_ms", "lower",
                "(schedule quality)", _COMPILE),
    LayerMetric("result.sched_latency_ms.inception_v3", "sim_ms", "lower",
                "(schedule quality)", _COMPILE),
    LayerMetric("result.sched_latency_ms.transformer_block", "sim_ms", "lower",
                "(schedule quality)", _COMPILE),
    LayerMetric("result.p50_ms", "sim_ms", "lower", "(request latency)", _REPLAY),
    LayerMetric("result.p99_ms", "sim_ms", "lower", "(request latency)", _REPLAY),
    LayerMetric("result.attainment", "ratio", "higher", "(met / offered)", _REPLAY),
    LayerMetric("result.completed", "count", "higher", "(sample count of p50/p99)",
                _REPLAY),
)
