"""Benchmark: cold vs cached engine compiles across the model zoo.

``Engine.compile`` stages passes → DP search → lowering.  Cold compiles pay
for the search; a second compile of the same structure must be a fingerprint
cache hit (no search, no lowering), and a warm start from a persisted
``CompiledModel`` artifact must rebuild an executable model with zero
searches.  These benchmarks record the compile cost per model and assert the
cache/artifact invariants that the serving stack depends on.
"""

from conftest import bench_device, bench_models, run_once

from repro.engine import Engine
from repro.experiments.tables import ExperimentTable
from repro.frontend import load


def _compile_table() -> ExperimentTable:
    """Cold vs cached compile timings, one row per zoo model."""
    device = bench_device()
    table = ExperimentTable(
        experiment_id="engine_compile",
        title=f"Engine compile pipeline on {device}: cold vs cached",
        columns=[
            "model", "operators", "cold_s", "passes_s", "schedule_s", "lower_s",
            "cached_s", "speedup", "latency_ms",
        ],
        notes="'cold' runs the full staged pipeline; 'cached' is the "
        "fingerprint-cache hit the experiments and the serve registry rely on",
    )
    engine = Engine(device, passes=True)
    for model in bench_models():
        graph = load(model, optimize=False)
        compiled = engine.compile(graph)
        cold_s = compiled.stats.elapsed_s

        import time

        start = time.perf_counter()
        again = engine.compile(graph)
        cached_s = time.perf_counter() - start
        assert again is compiled, "second compile must be a cache hit"

        table.add_row(
            model=model,
            operators=compiled.stats.operators_out,
            cold_s=cold_s,
            passes_s=compiled.stats.stage_elapsed_s("passes"),
            schedule_s=compiled.stats.stage_elapsed_s("schedule"),
            lower_s=compiled.stats.stage_elapsed_s("lower"),
            cached_s=cached_s,
            speedup=cold_s / cached_s if cached_s > 0 else float("inf"),
            latency_ms=compiled.latency_ms(),
        )
    return table


def test_cold_vs_cached_compile(benchmark):
    table = run_once(benchmark, _compile_table)
    for row in table.rows:
        assert row["cold_s"] > 0
        # The schedule stage dominates a cold compile; a cache hit skips it
        # entirely and must be at least an order of magnitude faster.
        assert row["cached_s"] < row["cold_s"] / 10
        assert row["latency_ms"] > 0


def test_artifact_warm_start_skips_the_search(benchmark, tmp_path_factory):
    """Persisted artifacts rebuild an executable model with zero searches."""
    device = bench_device()
    root = tmp_path_factory.mktemp("artifacts")
    model = bench_models()[0]
    cold_engine = Engine(device)
    compiled = cold_engine.compile(load(model, optimize=False))
    path = compiled.save(root / f"{model}.json")

    def warm_start():
        warm = Engine(device)
        loaded = warm.load(path)
        assert warm.stats.searches == 0
        assert loaded.latency_ms() > 0
        return loaded

    loaded = benchmark.pedantic(warm_start, rounds=1, iterations=1)
    assert loaded.schedule == compiled.schedule
