"""The benchmark's four workloads.

Each workload makes its inputs from the seed, sets up (model load, engine or
service construction, registry warmup, partitioning), runs its timed phase,
and then checks what the program produced.  A workload runs once per fresh
process (see ``perfbench/worker.py``): the schedule memo, the contention
simulator's caches and the schedule registry all start empty, which is what a
user's cold start pays.  The registry is never given a directory, so nothing
persists between runs.

All replays run open-loop on the virtual clock: the whole arrival schedule is
generated from the seed up front and replayed as fast as the host allows, so
each request is timed from its due arrival and the generator is never late.
The host-side figure is offered requests per wall second.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# The program is imported inside the functions below: run.py imports this
# module to list the workloads, without the program on its path.
from .checks import (
    Violation,
    check_causal,
    check_cluster_totals,
    check_ends_once,
    check_plan,
    check_serving_totals,
    check_workers,
    count_failed,
)

__all__ = ["Marks", "Outcome", "Workload", "WORKLOADS"]

ROOT = Path(__file__).resolve().parent.parent
TRANSFORMER_JSON = ROOT / "examples" / "transformer_block.json"


class Marks:
    """Phase boundaries of one run, from two markers that cost one call each.

    The timed phase starts at the first traffic generation (or where a
    workload says so) and ends where the workload says so; ``compile_s`` sums
    the wall time of outermost ``Engine.compile`` calls.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.timed_start: float | None = None
        self.timed_end: float | None = None
        self.compile_s = 0.0

    def begin_timed(self) -> None:
        if self.timed_start is None:
            self.timed_start = self.clock()

    def end_timed(self) -> None:
        self.begin_timed()  # a run that failed before its timed phase has none
        self.timed_end = self.clock()

    def install(self, bindings) -> None:
        """Wrap the two marker call sites on ``bindings`` (restored with it)."""
        from repro.engine.engine import Engine
        from repro.serve.traffic import TrafficGenerator

        marks = self

        def compile_marker(compile_fn):
            def compile(self, *args, **kwargs):
                start = marks.clock()
                try:
                    return compile_fn(self, *args, **kwargs)
                finally:
                    marks.compile_s += marks.clock() - start
            return compile

        def generate_marker(generate_fn):
            def generate(self, *args, **kwargs):
                marks.begin_timed()
                return generate_fn(self, *args, **kwargs)
            return generate

        bindings.patch(Engine, "compile", compile_marker)
        bindings.patch(TrafficGenerator, "generate", generate_marker)


@dataclass
class Outcome:
    """What a run produced, after its checks."""

    attempted: int
    #: Work items of the timed phase (operators scheduled, or requests offered).
    items: int
    violations: list[Violation] = field(default_factory=list)
    #: Operations that raised, one failed operation each.
    errors: list[str] = field(default_factory=list)
    #: Operations left without any output because the replay itself raised.
    unserved: int = 0
    #: Virtual-clock results: deterministic for a given seed.
    results: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics read off the program's own stats objects.
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(self.attempted, count_failed(self.violations, self.attempted)
                   + len(self.errors) + self.unserved)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``run(seed, marks) -> state`` covers set-up and the timed phase.
    run: Callable[[int, Marks], Any]
    #: ``check(state) -> Outcome`` runs after the timed phase, untimed.
    check: Callable[[Any], Outcome]


# --------------------------------------------------------------- compile-cold
COMPILE_DEVICE = "v100"


def compile_inputs(seed: int) -> dict[str, Any]:
    """The three graphs' seeded hyper-parameters.

    The seed draws each zoo model's classifier width and the transformer's
    feed-forward width near their defaults: the graph structure, and so the
    search, stays the same while the schedules' simulated latency differs
    per seed.
    """
    rng = random.Random(seed)
    return {
        "nasnet_a": {"num_classes": rng.randint(900, 1100)},
        "inception_v3": {"num_classes": rng.randint(900, 1100)},
        "transformer_block": {"ffn_width": rng.choice(range(960, 1089, 32))},
    }


def transformer_document(ffn_width: int) -> dict:
    """The example transformer block with its feed-forward width replaced."""
    document = json.loads(TRANSFORMER_JSON.read_text())
    for initializer in document["initializers"]:
        if initializer["name"] == "w_up":
            initializer["shape"] = [initializer["shape"][0], ffn_width]
        elif initializer["name"] == "w_down":
            initializer["shape"] = [ffn_width, initializer["shape"][1]]
    return document


def run_compile_cold(seed: int, marks: Marks) -> dict:
    import repro.frontend as frontend
    from repro.engine import Engine

    inputs = compile_inputs(seed)
    sources = {
        "nasnet_a": lambda: frontend.load("nasnet_a", **inputs["nasnet_a"]),
        "inception_v3": lambda: frontend.load("inception_v3", **inputs["inception_v3"]),
        "transformer_block": lambda: frontend.load(
            transformer_document(inputs["transformer_block"]["ffn_width"])
        ),
    }
    graphs, errors = {}, []
    for name, load in sources.items():
        try:
            graphs[name] = load()
        except Exception as exc:  # a failed load is a failed compile
            errors.append(f"{name}: load raised {exc!r}")
    engine = Engine(COMPILE_DEVICE, passes=True, jobs=1)
    marks.begin_timed()
    compiled = {}
    for name, graph in graphs.items():
        try:
            compiled[name] = engine.compile(graph)
        except Exception as exc:  # counted, and the other graphs still compile
            errors.append(f"{name}: compile raised {exc!r}")
    marks.end_timed()
    return {"compiled": compiled, "errors": errors, "attempted": len(sources)}


def check_compile_cold(state: dict) -> Outcome:
    from repro.core.baselines import sequential_schedule
    from repro.core.lowering import lower_schedule
    from repro.runtime.executor import Executor

    compiled = state["compiled"]
    outcome = Outcome(
        attempted=state["attempted"],
        items=sum(model.stats.operators_out for model in compiled.values()),
        errors=list(state["errors"]),
    )
    for name, model in compiled.items():
        for violation in check_plan(model.graph, model.schedule, model.plan):
            outcome.violations.append(Violation(f"{name}: {violation.message}", name))
        latency = model.latency_ms()
        sequential = Executor(model.device, model.profile).run(
            lower_schedule(model.graph, sequential_schedule(model.graph))
        ).latency_ms
        if not latency <= sequential:
            outcome.violations.append(Violation(
                f"{name}: IOS latency {latency} ms exceeds the sequential {sequential} ms",
                name,
            ))
        outcome.results[f"result.sched_latency_ms.{name}"] = latency
    return outcome


# ------------------------------------------------------------------- serving
#: One host, a mixed fleet, squeezenet on a batch ladder up to 8.
SERVE_FLEET = "k80:1,v100:1"
SERVE_MODEL = "squeezenet"
SERVE_SLO_MS = 20.0
BURSTY_REQUESTS = 40_000
OBSERVED_REQUESTS = 12_000
#: Just past the fleet's capacity for this mix, so deadline admission sheds.
OBSERVED_RATE_RPS = 3_300.0
#: Retained request-lifecycle records in the sampled trace.
OBSERVED_TRACE_BUDGET = 20_000
#: Run artifacts (spans, exported traces) stay inside the checkout, here.
OUTPUT_DIR = ROOT / ".perfbench"


def _serving_config(admission: str):
    from repro.serve import BatchPolicy, ServingConfig

    return ServingConfig(
        model=SERVE_MODEL, fleet=SERVE_FLEET, batch_sizes=(1, 2, 4, 8),
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0), admission=admission,
    )


def run_serve_bursty(seed: int, marks: Marks) -> dict:
    from repro.serve import InferenceService, TrafficConfig, TrafficGenerator

    traffic = TrafficConfig(
        model=SERVE_MODEL, pattern="bursty", num_requests=BURSTY_REQUESTS,
        burst_size=96, burst_gap_ms=30.0, slo_ms=SERVE_SLO_MS,
        priorities=(0, 1), priority_weights=(0.7, 0.3), seed=seed,
    )
    service = InferenceService(_serving_config("priority"))
    service.warmup()
    requests = TrafficGenerator(traffic).generate()
    state = {"offered": len(requests), "report": None, "errors": []}
    try:
        state["report"] = service.run(requests)
    except Exception as exc:  # counted; without a report every offered request fails
        state["errors"].append(f"replay raised {exc!r}")
    marks.end_timed()
    return state


def run_serve_observed(seed: int, marks: Marks) -> dict:
    import repro.obs as obs
    from repro.serve import InferenceService, TrafficConfig, TrafficGenerator

    traffic = TrafficConfig(
        model=SERVE_MODEL, pattern="poisson", num_requests=OBSERVED_REQUESTS,
        rate_rps=OBSERVED_RATE_RPS, slo_ms=SERVE_SLO_MS, seed=seed,
    )
    tracer = obs.SamplingTracer(obs.SamplingConfig(max_records=OBSERVED_TRACE_BUDGET))
    service = InferenceService(
        _serving_config("deadline"), tracer=tracer,
        alerts=obs.default_alert_rules(slo_ms=SERVE_SLO_MS),
    )
    service.warmup()
    OUTPUT_DIR.mkdir(exist_ok=True)
    export_dir = tempfile.TemporaryDirectory(dir=OUTPUT_DIR)
    state = {"offered": None, "report": None, "errors": [], "tracer": tracer,
             "export_dir": export_dir, "trace": None}
    requests = TrafficGenerator(traffic).generate()
    state["offered"] = len(requests)
    try:
        state["report"] = service.run(requests)
        state["trace"] = obs.write_chrome_trace(tracer, Path(export_dir.name) / "trace.json")
    except Exception as exc:  # counted; without a report every offered request fails
        state["errors"].append(f"replay raised {exc!r}")
    marks.end_timed()
    return state


def _replay_results(records, offered: int) -> dict[str, float]:
    from repro.serve import percentile

    latencies = [record.latency_ms for record in records]
    met = sum(1 for record in records if record.deadline_met)
    return {
        "result.p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "result.p99_ms": percentile(latencies, 99) if latencies else 0.0,
        "result.attainment": met / offered,
        "result.completed": len(records),
    }


def _check_replay(state: dict) -> Outcome:
    offered = state["offered"]
    outcome = Outcome(attempted=offered, items=offered, errors=list(state["errors"]))
    report = state["report"]
    if report is None:
        outcome.unserved = offered
        return outcome
    outcome.violations += check_ends_once(range(offered), report.records, report.rejected)
    outcome.violations += check_causal(report.records, report.rejected)
    outcome.violations += check_workers(report.records)
    outcome.violations += check_serving_totals(report, offered)
    outcome.results.update(_replay_results(report.records, offered))
    stats = report.registry_stats
    outcome.facts["serve.registry.hit_ratio"] = (
        (stats.memory_hits + stats.disk_hits) / stats.lookups if stats.lookups else 0.0
    )
    return outcome


def check_serve_observed(state: dict) -> Outcome:
    try:
        outcome = _check_replay(state)
        trace = state["trace"]
        if trace is not None:
            events = json.loads(Path(trace).read_text()).get("traceEvents")
            if not events:
                outcome.violations.append(Violation("exported trace has no events"))
        meta = state["tracer"].sampling_metadata()["records"]
        offered_records = meta["kept"] + meta["dropped"]
        outcome.facts["obs.sampling.kept_ratio"] = (
            meta["kept"] / offered_records if offered_records else 0.0
        )
        return outcome
    finally:
        state["export_dir"].cleanup()


# ------------------------------------------------------------------- cluster
CLUSTER_REQUESTS = 10_000
CLUSTER_SLO_MS = 25.0


def run_cluster_pipeline(seed: int, marks: Marks) -> dict:
    from repro.cluster import ClusterConfig, run_cluster_serving
    from repro.serve import BatchPolicy, ServingConfig, TrafficConfig

    serving = ServingConfig(
        model=SERVE_MODEL, devices=("k80",), batch_sizes=(1, 2, 4, 8),
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
    )
    cluster = ClusterConfig(
        serving=serving, num_hosts=4, partition=True, router="partition-affinity",
        link="bw=12.5,lat=0.05",
    )
    traffic = TrafficConfig(
        model=SERVE_MODEL, pattern="bursty", num_requests=CLUSTER_REQUESTS,
        burst_size=32, burst_gap_ms=40.0, slo_ms=CLUSTER_SLO_MS, seed=seed,
    )
    state = {"offered": CLUSTER_REQUESTS, "report": None, "errors": []}
    try:
        # Partitioning and host warmup are set-up; the timed phase starts at
        # the first traffic generation inside.
        state["report"] = run_cluster_serving(traffic, cluster)
    except Exception as exc:  # counted; without a report every offered request fails
        state["errors"].append(f"cluster replay raised {exc!r}")
    marks.end_timed()
    return state


def check_cluster_pipeline(state: dict) -> Outcome:
    offered = state["offered"]
    outcome = Outcome(attempted=offered, items=offered, errors=list(state["errors"]))
    cluster_report = state["report"]
    if cluster_report is None:
        outcome.unserved = offered
        return outcome
    report = cluster_report.report
    outcome.violations += check_ends_once(range(offered), report.records, report.rejected)
    outcome.violations += check_causal(report.records, report.rejected)
    for host_id, host_report in enumerate(cluster_report.host_reports):
        if host_report is not None:
            outcome.violations += check_causal(host_report.records, host_report.rejected)
            outcome.violations += check_workers(host_report.records, f"host {host_id} ")
    outcome.violations += check_cluster_totals(cluster_report, offered)
    outcome.results.update(_replay_results(report.records, offered))
    outcome.facts["cluster.transfers"] = cluster_report.transfers.count
    stats = report.registry_stats
    outcome.facts["serve.registry.hit_ratio"] = (
        (stats.memory_hits + stats.disk_hits) / stats.lookups if stats.lookups else 0.0
    )
    return outcome


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "compile-cold",
            "Cold serial compiles of nasnet_a, inception_v3 and the imported transformer "
            "block: search, endings, cost model and contention simulator do the work; "
            "serving layers are idle.",
            run_compile_cold, check_compile_cold,
        ),
        Workload(
            "serve-bursty",
            "Overloading bursts, two priority classes, priority admission on k80+v100: "
            "admission, routing, batching and per-class/per-burst SLO reporting do the work.",
            run_serve_bursty, _check_replay,
        ),
        Workload(
            "serve-observed",
            "Poisson arrivals just past capacity with windowed metrics, alerts, a sampled "
            "trace and its export: obs dominates, no bursts, one class.",
            run_serve_observed, check_serve_observed,
        ),
        Workload(
            "cluster-pipeline",
            "Four hosts running squeezenet as a 4-stage pipeline over a modelled link: the "
            "cluster event heap, host routing, link pricing and stepped host loops work.",
            run_cluster_pipeline, check_cluster_pipeline,
        ),
    )
}
