"""Lowering schedules to executable plans.

A :class:`~repro.core.schedule.Schedule` references operators by name and
records per-stage strategies; the execution engine wants concrete operator
groups (with merged operators already constructed).  ``lower_schedule`` bridges
the two, and ``measure_schedule`` is the end-to-end convenience used by every
experiment: lower, execute on the simulated device, return the result.
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..runtime.executor import ExecutionPlan, ExecutionResult, ExecutionStage, Executor
from .merge import build_merged_operator
from .schedule import ParallelizationStrategy, Schedule, connected_groups

__all__ = ["stage_to_execution", "lower_schedule", "measure_schedule", "schedule_latency_ms",
           "schedule_throughput"]


def stage_to_execution(graph: Graph, op_names: Sequence[str],
                       strategy: ParallelizationStrategy, label: str = "") -> ExecutionStage:
    """Lower one (operators, strategy) stage into an executable stage.

    Its groups run on the streams the search priced them on, so the executed
    schedule's latency is exactly the latency the search used.
    """
    if strategy is ParallelizationStrategy.MERGE and len(op_names) >= 2:
        groups = [[build_merged_operator(graph, op_names).merged]]
    else:
        groups = [[graph.nodes[name] for name in group]
                  for group in connected_groups(graph, op_names)]
    return ExecutionStage(groups=groups, strategy=strategy.value, label=label)


def lower_schedule(graph: Graph, schedule: Schedule) -> ExecutionPlan:
    """Lower a validated schedule into an :class:`ExecutionPlan`."""
    schedule.validate(graph)
    plan = ExecutionPlan(
        name=f"{graph.name}:{schedule.origin or 'schedule'}", batch_size=graph.batch_size
    )
    for stage_index, stage in enumerate(schedule.stages):
        plan.stages.append(
            stage_to_execution(
                graph, stage.operators, stage.strategy, label=f"stage{stage_index}"
            )
        )
    return plan


def measure_schedule(
    graph: Graph,
    schedule: Schedule,
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
    record_trace: bool = False,
) -> ExecutionResult:
    """Execute ``schedule`` on the simulated ``device`` and return the result."""
    plan = lower_schedule(graph, schedule)
    executor = Executor(device, profile, record_trace=record_trace)
    return executor.run(plan)


def schedule_latency_ms(
    graph: Graph,
    schedule: Schedule,
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
) -> float:
    """End-to-end latency (ms) of running ``schedule`` on ``device``."""
    return measure_schedule(graph, schedule, device, profile).latency_ms


def schedule_throughput(
    graph: Graph,
    schedule: Schedule,
    device: DeviceSpec,
    profile: KernelProfile = CUDNN_PROFILE,
) -> float:
    """Throughput (samples/s) of running ``schedule`` on ``device``."""
    return measure_schedule(graph, schedule, device, profile).throughput()
