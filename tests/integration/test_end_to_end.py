"""Integration tests: whole pipeline from model zoo to executed schedules."""

from __future__ import annotations

import pytest

from repro import get_device, optimize
from repro.core import (
    IOSScheduler,
    Schedule,
    SimulatedCostModel,
    greedy_schedule,
    measure_schedule,
    schedule_latency_ms,
    sequential_schedule,
)
from repro.frameworks import get_framework
from repro.frontend import load


@pytest.fixture(scope="module")
def v100():
    return get_device("v100")


@pytest.fixture(scope="module")
def squeezenet():
    return load("squeezenet", batch_size=1)


@pytest.fixture(scope="module")
def squeezenet_schedules(squeezenet, v100):
    ios = optimize(squeezenet, v100)
    return {
        "sequential": sequential_schedule(squeezenet),
        "greedy": greedy_schedule(squeezenet),
        "ios": ios,
    }


class TestSqueezeNetEndToEnd:
    def test_all_schedules_execute_and_cover_graph(self, squeezenet, squeezenet_schedules, v100):
        for schedule in squeezenet_schedules.values():
            schedule.validate(squeezenet)
            assert measure_schedule(squeezenet, schedule, v100).latency_ms > 0

    def test_ios_is_fastest(self, squeezenet, squeezenet_schedules, v100):
        latencies = {
            name: schedule_latency_ms(squeezenet, schedule, v100)
            for name, schedule in squeezenet_schedules.items()
        }
        assert latencies["ios"] <= latencies["greedy"] + 1e-9
        assert latencies["ios"] <= latencies["sequential"] + 1e-9
        assert latencies["sequential"] / latencies["ios"] > 1.05

    def test_schedule_roundtrip_preserves_latency(self, squeezenet, squeezenet_schedules, v100, tmp_path):
        ios = squeezenet_schedules["ios"]
        path = ios.save(tmp_path / "squeezenet_ios.json")
        loaded = Schedule.load(path)
        assert schedule_latency_ms(squeezenet, loaded, v100) == pytest.approx(
            schedule_latency_ms(squeezenet, ios, v100)
        )

    def test_ios_beats_simulated_frameworks(self, squeezenet, squeezenet_schedules, v100):
        ios_latency = schedule_latency_ms(squeezenet, squeezenet_schedules["ios"], v100)
        for name in ("tensorflow", "tensorrt", "tvm-cudnn"):
            assert ios_latency < get_framework(name).latency_ms(squeezenet, v100)


class TestInceptionEndToEnd:
    @pytest.fixture(scope="class")
    def inception(self):
        return load("inception_v3", batch_size=1)

    @pytest.fixture(scope="class")
    def ios_result(self, inception, v100):
        return IOSScheduler(SimulatedCostModel(v100)).optimize_graph(inception)

    def test_speedup_in_paper_range(self, inception, ios_result, v100):
        seq = schedule_latency_ms(inception, sequential_schedule(inception), v100)
        ios = schedule_latency_ms(inception, ios_result.schedule, v100)
        # The paper reports ~1.6x over sequential execution on the real V100;
        # the simulator should land in a broadly similar range.
        assert 1.2 < seq / ios < 3.0

    def test_search_statistics_are_consistent(self, ios_result):
        stats = ios_result.block_stats
        assert sum(s.num_operators for s in stats) == 121
        assert all(s.num_transitions >= s.num_states for s in stats if s.reused_from is None)
        assert ios_result.total_measurements > 0
        assert ios_result.elapsed_s > 0

    def test_schedule_uses_concurrency_in_wide_blocks(self, inception, ios_result):
        widest_stage = max(ios_result.schedule.stages, key=len)
        assert len(widest_stage) >= 2

    def test_device_specialization_prefers_native_device(self, inception, v100, request):
        k80 = get_device("k80")
        v100_schedule = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(inception).schedule
        k80_schedule = IOSScheduler(SimulatedCostModel(k80)).optimize_graph(inception).schedule
        on_k80_native = schedule_latency_ms(inception, k80_schedule, k80)
        on_k80_foreign = schedule_latency_ms(inception, v100_schedule, k80)
        assert on_k80_native <= on_k80_foreign + 1e-9
