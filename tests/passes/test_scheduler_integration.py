"""Integration of the pass pipeline with the compile path (repro.engine)."""

from __future__ import annotations

import pytest

from repro.core import IOSScheduler, SimulatedCostModel, measure_schedule
from repro.engine import Engine
from repro.frontend import load
from repro.passes import PassManager, unfuse_activations


@pytest.fixture(scope="module")
def raw_squeezenet():
    return unfuse_activations(load("squeezenet", optimize=False))


class TestSchedulerPassesEntryPoint:
    def test_default_path_does_not_rewrite(self, raw_squeezenet, v100):
        result = IOSScheduler(SimulatedCostModel(v100)).optimize_graph(raw_squeezenet)
        assert result.graph is raw_squeezenet
        assert result.pass_stats is None

    def test_passes_true_runs_default_pipeline(self, raw_squeezenet, v100):
        result = Engine(v100, passes=True).compile(raw_squeezenet).search
        assert result.graph is not raw_squeezenet
        assert len(result.graph.schedulable_names()) < len(
            raw_squeezenet.schedulable_names()
        )
        assert result.pass_stats is not None
        assert sum(s.rewrites for s in result.pass_stats) > 0
        # The schedule refers to (and validates against) the rewritten graph.
        result.schedule.validate(result.graph)
        assert measure_schedule(result.graph, result.schedule, v100).latency_ms > 0

    def test_custom_pipeline_instance(self, raw_squeezenet, v100):
        manager = PassManager(["fuse-activation"])
        result = Engine(v100, passes=manager).compile(raw_squeezenet).search
        assert [s.name for s in result.pass_stats] == ["fuse-activation"]

    def test_optimized_is_no_slower(self, raw_squeezenet, v100):
        optimized = Engine("v100", passes=True).compile(raw_squeezenet).search
        plain = Engine(v100).compile(raw_squeezenet).search
        assert plain.graph is raw_squeezenet
        assert len(optimized.graph.schedulable_names()) < len(
            plain.graph.schedulable_names()
        )
        # Fewer kernels => the optimised schedule cannot be slower.
        opt_ms = measure_schedule(optimized.graph, optimized.schedule, v100).latency_ms
        raw_ms = measure_schedule(plain.graph, plain.schedule, v100).latency_ms
        assert opt_ms <= raw_ms + 1e-9


class TestBuildModelOptimize:
    def test_optimize_kwarg(self):
        raw = load("nasnet_a", optimize=False)
        optimized = load("nasnet_a", optimize=True)
        assert len(optimized.schedulable_names()) < len(raw.schedulable_names())

    def test_process_default(self):
        from repro.models import set_default_optimize

        previous = set_default_optimize(True)
        try:
            implicit = load("nasnet_a")
        finally:
            set_default_optimize(previous)
        explicit = load("nasnet_a", optimize=True)
        assert list(implicit.nodes) == list(explicit.nodes)

    def test_cli_flag_restores_default(self, capsys):
        from repro.experiments.cli import main
        from repro.models.common import _DEFAULT_OPTIMIZE

        assert main(["figure13", "--passes"]) == 0
        capsys.readouterr()
        from repro.models import common

        assert common._DEFAULT_OPTIMIZE == _DEFAULT_OPTIMIZE
