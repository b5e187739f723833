"""Unit tests for repro.runtime: executor, profiler, warp tracing, memory planner."""

from __future__ import annotations

import pytest

from repro.frontend import load
from repro.models import figure2_block
from repro.runtime import (
    ExecutionPlan,
    ExecutionStage,
    Executor,
    MemoryPlanner,
    OutOfMemoryError,
    Profiler,
    WarpTrace,
    compare_traces,
    sequential_plan,
    trace_from_timeline,
)


class TestExecutor:
    def test_sequential_plan_covers_kernel_operators(self, fig2):
        plan = sequential_plan(fig2)
        assert plan.num_stages() == 5
        assert plan.batch_size == 1
        assert plan.flops() == pytest.approx(fig2.total_flops())

    def test_run_produces_monotone_stage_times(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        events = result.stage_events()
        assert len(events) == 5
        for first, second in zip(events, events[1:]):
            assert second.start_ms == pytest.approx(first.end_ms)
        assert result.latency_ms == pytest.approx(events[-1].end_ms)

    def test_concurrent_stage_faster_than_sequential(self, fig2, v100):
        ops = [fig2.nodes["conv_a"], fig2.nodes["conv_c"]]
        sequential = ExecutionPlan("seq", [ExecutionStage(groups=[[op]]) for op in ops])
        concurrent = ExecutionPlan("par", [ExecutionStage(groups=[[ops[0]], [ops[1]]])])
        executor = Executor(v100)
        assert executor.latency_ms(concurrent) < executor.latency_ms(sequential)

    def test_empty_stage_costs_nothing(self, v100):
        plan = ExecutionPlan("empty", [ExecutionStage(groups=[[]])])
        assert Executor(v100).latency_ms(plan) == 0.0

    def test_throughput(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        assert result.throughput() == pytest.approx(1 / (result.latency_ms / 1e3))

    def test_batch_increases_latency_but_also_throughput(self, v100):
        graph1 = figure2_block(batch_size=1)
        graph8 = figure2_block(batch_size=8)
        executor = Executor(v100)
        result1 = executor.run(sequential_plan(graph1))
        result8 = executor.run(sequential_plan(graph8))
        assert result8.latency_ms > result1.latency_ms
        assert result8.throughput() > result1.throughput()

    def test_record_trace_produces_timeline(self, fig2, v100):
        result = Executor(v100, record_trace=True).run(sequential_plan(fig2))
        assert result.timeline()
        assert Executor(v100, record_trace=False).run(sequential_plan(fig2)).timeline() == []

    def test_kernel_events_in_global_time(self, fig2, v100):
        result = Executor(v100).run(sequential_plan(fig2))
        kernel_events = result.kernel_events()
        assert len(kernel_events) == 5
        assert kernel_events[1].start_ms >= kernel_events[0].end_ms - 1e-9


class TestProfiler:
    def test_noiseless_measurement_matches_executor(self, fig2, v100):
        profiler = Profiler(v100, noise_std=0.0)
        plan = sequential_plan(fig2)
        measurement = profiler.measure_plan(plan)
        assert measurement.mean_ms == pytest.approx(Executor(v100).latency_ms(plan))
        assert measurement.std_ms == 0.0
        assert measurement.min_ms == measurement.max_ms == measurement.mean_ms

    def test_noisy_measurement_reproducible(self, fig2, v100):
        plan = sequential_plan(fig2)
        first = Profiler(v100, noise_std=0.05, seed=7).measure_plan(plan)
        second = Profiler(v100, noise_std=0.05, seed=7).measure_plan(plan)
        assert first.samples == second.samples
        assert first.std_ms > 0

    def test_counts_and_gpu_time_accumulate(self, fig2, v100):
        profiler = Profiler(v100, warmup=2, repeats=5)
        plan = sequential_plan(fig2)
        profiler.measure_plan(plan)
        profiler.measure_plan(plan)
        assert profiler.measurement_count == 2
        expected = 2 * 7 * Executor(v100).latency_ms(plan)
        assert profiler.total_profiling_ms == pytest.approx(expected)

    def test_stage_latency(self, fig2, v100):
        profiler = Profiler(v100)
        stage = ExecutionStage(groups=[[fig2.nodes["conv_a"]]])
        assert profiler.stage_latency_ms(stage) > 0

    def test_invalid_arguments(self, v100):
        with pytest.raises(ValueError):
            Profiler(v100, repeats=0)
        with pytest.raises(ValueError):
            Profiler(v100, noise_std=-1)


class TestWarpTrace:
    def test_trace_sampling(self, fig2, v100):
        result = Executor(v100, record_trace=True).run(sequential_plan(fig2))
        trace = trace_from_timeline(result.timeline(), sample_period_ms=0.01)
        assert trace.num_samples > 0
        assert trace.duration_ms == pytest.approx(result.latency_ms, rel=0.05)
        assert 0 < trace.average_active_warps() <= v100.max_active_warps

    def test_empty_timeline(self):
        trace = trace_from_timeline([], sample_period_ms=0.01)
        assert trace.num_samples == 0
        assert trace.average_active_warps() == 0.0
        assert trace.warps_per_ms() == 0.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            trace_from_timeline([], sample_period_ms=0.0)

    def test_compare_traces(self):
        base = WarpTrace(0.01, (100.0, 100.0), 0.02)
        better = WarpTrace(0.01, (150.0, 250.0), 0.02)
        assert compare_traces(base, better) == pytest.approx(2.0)
        empty = WarpTrace(0.01, (), 0.0)
        assert compare_traces(empty, better) == float("inf")
        assert compare_traces(empty, empty) == 1.0


class TestMemoryPlanner:
    def test_liveness_reuse_smaller_than_sum(self):
        graph = load("squeezenet", batch_size=8)
        reuse = MemoryPlanner(activation_reuse=True).plan(graph)
        hoard = MemoryPlanner(activation_reuse=False).plan(graph)
        assert reuse.peak_activation_bytes < hoard.peak_activation_bytes
        assert reuse.weight_bytes == hoard.weight_bytes == graph.total_weight_bytes()

    def test_activation_copies_multiplier(self, diamond):
        single = MemoryPlanner(activation_copies=1).plan(diamond)
        double = MemoryPlanner(activation_copies=2).plan(diamond)
        assert double.peak_activation_bytes == 2 * single.peak_activation_bytes

    def test_peak_scales_with_batch(self):
        graph1 = figure2_block(batch_size=1)
        graph64 = figure2_block(batch_size=64)
        planner = MemoryPlanner()
        assert planner.plan(graph64).peak_activation_bytes > 32 * planner.plan(graph1).peak_activation_bytes

    def test_check_raises_on_oom(self, v100):
        graph = figure2_block(batch_size=4096)
        planner = MemoryPlanner(activation_reuse=False)
        with pytest.raises(OutOfMemoryError):
            planner.check(graph, v100)

    def test_check_passes_for_small_graph(self, diamond, v100):
        plan = MemoryPlanner().check(diamond, v100)
        assert plan.fits(v100)
        assert plan.total_gib < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MemoryPlanner(workspace_factor=-1)
        with pytest.raises(ValueError):
            MemoryPlanner(activation_copies=0)
        with pytest.raises(ValueError):
            MemoryPlanner(framework_overhead_bytes=-5)
