"""Tests for the simulated worker pool."""

from __future__ import annotations

import pytest

from repro.core import IOSScheduler, SimulatedCostModel
from repro.models import chain_graph
from repro.serve import WorkerPool
from repro.serve.workers import earliest_start_worker


@pytest.fixture
def graph():
    return chain_graph(length=3, batch_size=2)


@pytest.fixture
def schedule(graph, v100):
    return IOSScheduler(SimulatedCostModel(v100)).optimize_graph(graph).schedule


class TestWorkerPool:
    def test_requires_at_least_one_device(self):
        with pytest.raises(ValueError):
            WorkerPool([])

    def test_dispatch_advances_the_worker_horizon(self, graph, schedule, v100):
        pool = WorkerPool([v100])
        result = pool.dispatch(graph, schedule, pool.workers[0], ready_ms=10.0)
        assert result.start_ms == 10.0
        assert result.end_ms == pytest.approx(10.0 + result.execution_ms)
        assert result.execution_ms > 0
        assert pool.workers[0].busy_until_ms == result.end_ms

    def test_busy_worker_queues_the_batch(self, graph, schedule, v100):
        pool = WorkerPool([v100])
        first = pool.dispatch(graph, schedule, pool.workers[0], ready_ms=0.0)
        second = pool.dispatch(graph, schedule, pool.workers[0], ready_ms=0.0)
        assert second.start_ms == first.end_ms
        assert second.wait_for_worker_ms == pytest.approx(first.end_ms)

    def test_next_worker_prefers_the_idle_one(self, graph, schedule, v100):
        pool = WorkerPool([v100, v100])
        worker = earliest_start_worker(pool.workers, 0.0)
        pool.dispatch(graph, schedule, worker, ready_ms=0.0)
        other = earliest_start_worker(pool.workers, 0.0)
        assert other.worker_id != worker.worker_id

    def test_plan_latency_is_cached_and_deterministic(self, graph, schedule, v100):
        pool = WorkerPool([v100])
        worker = pool.workers[0]
        first = pool.plan_latency_ms(graph, schedule, worker)
        assert pool.plan_latency_ms(graph, schedule, worker) == first
        assert len(pool._plan_cache) == 1
        assert len(pool._result_cache) == 1

    def test_heterogeneous_pool_runs_faster_on_the_faster_device(
        self, graph, schedule, v100, k80
    ):
        pool = WorkerPool([v100, k80])
        fast = pool.plan_latency_ms(graph, schedule, pool.workers[0])
        slow = pool.plan_latency_ms(graph, schedule, pool.workers[1])
        assert fast < slow

    def test_summary_accounts_for_all_dispatches(self, graph, schedule, v100):
        pool = WorkerPool([v100, v100])
        for _ in range(4):
            worker = earliest_start_worker(pool.workers, 0.0)
            pool.dispatch(graph, schedule, worker, ready_ms=0.0)
        summary = pool.summary()
        assert sum(row["batches"] for row in summary) == 4
        assert sum(row["samples"] for row in summary) == 4 * graph.batch_size
        assert all(0.0 <= row["utilization"] <= 1.0 for row in summary)
