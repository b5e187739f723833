"""Simulated execution engine: executor, profiler, warp tracing, memory planner."""

from .events import KernelEvent
from .executor import (
    ExecutionPlan,
    ExecutionResult,
    ExecutionStage,
    Executor,
    sequential_plan,
)
from .profiler import Profiler
from .warp_trace import WarpTrace, compare_traces, trace_from_timeline
from .memory import MemoryPlanner, OutOfMemoryError

__all__ = [
    "KernelEvent",
    "ExecutionStage",
    "ExecutionPlan",
    "ExecutionResult",
    "Executor",
    "sequential_plan",
    "Profiler",
    "WarpTrace",
    "trace_from_timeline",
    "compare_traces",
    "MemoryPlanner",
    "OutOfMemoryError",
]
