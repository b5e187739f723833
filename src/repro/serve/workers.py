"""Worker pool: executing compiled plans across simulated devices.

Each worker wraps one simulated :class:`~repro.hardware.device.DeviceSpec`
with an :class:`~repro.runtime.executor.Executor` and a ``busy_until_ms``
horizon on the shared virtual clock.  Workers carry their *own* device
identity, so a pool may freely mix device types (see
:class:`~repro.serve.fleet.FleetSpec`); plan and latency caches are keyed by
the worker's device, never by a pool-wide one.

*Which* worker a batch goes to is the router's decision
(:mod:`repro.serve.fleet`) — the pool only executes: :meth:`WorkerPool.dispatch`
runs an execution plan on the chosen worker, advances its horizon, and
returns the batch timeline.

Execution plans come from :class:`~repro.engine.CompiledModel` artifacts via
the schedule registry; the pool memoises them per
``(model, batch size, device, origin)`` so a steady-state dispatch is one
simulated execution — no lowering, no scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.lowering import lower_schedule
from ..core.schedule import Schedule
from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from ..obs.metrics import MetricsRegistry
from ..runtime.executor import ExecutionPlan, ExecutionResult, Executor

__all__ = ["Worker", "DispatchResult", "WorkerPool", "earliest_start_worker"]


def earliest_start_worker(workers: Sequence["Worker"], ready_ms: float) -> "Worker":
    """The worker that can *start* a batch ready at ``ready_ms`` first.

    Ties break by worker id for determinism.  This is the single home of the
    earliest-start tiebreak: the ``earliest-start`` router delegates here.
    """
    return min(
        workers,
        key=lambda worker: (max(worker.busy_until_ms, ready_ms), worker.worker_id),
    )


@dataclass
class Worker:
    """One simulated device plus its execution horizon."""

    worker_id: int
    device: DeviceSpec
    executor: Executor
    busy_until_ms: float = 0.0
    batches_executed: int = 0
    samples_executed: int = 0
    busy_ms: float = 0.0
    #: When the worker joined the pool (0 for the initial fleet; the
    #: autoscaler stamps scale-up spawns with the virtual clock).
    spawned_ms: float = 0.0
    #: When the worker left the pool (``None`` while it is active).
    retired_ms: float | None = None

    def utilization(self, makespan_ms: float) -> float:
        """Fraction of its *lifetime* this worker spent executing batches.

        A worker's lifetime runs from its spawn to its retirement (or to
        ``makespan_ms`` while active) — on a fixed pool that is the whole
        run, exactly as before, while an autoscaler-spawned worker is judged
        only over the slice of the run it existed for.
        """
        end_ms = makespan_ms if self.retired_ms is None else self.retired_ms
        lifetime_ms = end_ms - self.spawned_ms
        if lifetime_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / lifetime_ms)


@dataclass
class DispatchResult:
    """Timeline of one batch execution on a worker."""

    worker_id: int
    device: str
    #: When the batch became ready for dispatch (batcher close time).
    ready_ms: float
    #: When the batch started executing (>= ready_ms and >= worker horizon).
    start_ms: float
    #: When the batch finished executing.
    end_ms: float
    #: Simulated device latency of the plan itself.
    execution_ms: float

    @property
    def wait_for_worker_ms(self) -> float:
        """How long the batch sat ready before its worker could start it."""
        return self.start_ms - self.ready_ms


class WorkerPool:
    """A pool of simulated devices executing lowered plans.

    Parameters
    ----------
    devices:
        One entry per worker.  Repeat a spec to model replicas of the same
        GPU; mix specs for a heterogeneous pool.
    profile:
        Kernel-library profile shared by all executors.
    """

    def __init__(self, devices: Sequence[DeviceSpec], profile: KernelProfile = CUDNN_PROFILE):
        if not devices:
            raise ValueError("worker pool needs at least one device")
        self.profile = profile
        self.workers = [
            Worker(worker_id=index, device=device, executor=Executor(device, profile))
            for index, device in enumerate(devices)
        ]
        #: Workers removed by the autoscaler; they keep their executed-batch
        #: accounting and still appear in :meth:`summary`.
        self.retired: list[Worker] = []
        #: Worker ids are never reused, so records stay unambiguous even
        #: after the pool shrank and grew again.
        self._next_worker_id = len(self.workers)
        #: Lowered-plan cache keyed by (graph name, batch size, device name,
        #: schedule origin) — lowering validates and rebuilds merged operators,
        #: so it is worth skipping on the request path.
        self._plan_cache: dict[tuple[str, int, str, str], ExecutionPlan] = {}
        #: Full simulated execution per cache key (simulation is
        #: deterministic, so one run stands for every dispatch of the plan).
        #: Keeping the whole :class:`ExecutionResult` — not just its latency —
        #: lets tracing replay the plan's stage/kernel events as child spans
        #: of each dispatch.
        self._result_cache: dict[tuple[str, int, str, str], ExecutionResult] = {}

    def __len__(self) -> int:
        return len(self.workers)

    @property
    def devices(self) -> list[DeviceSpec]:
        """One :class:`DeviceSpec` per worker, in worker-id order."""
        return [worker.device for worker in self.workers]

    @property
    def device_types(self) -> list[DeviceSpec]:
        """The distinct device specs in the pool, in first-worker order.

        A homogeneous pool has exactly one entry; warmup and per-device
        compile fan-out iterate this instead of every replica.
        """
        seen: dict[str, DeviceSpec] = {}
        for worker in self.workers:
            seen.setdefault(worker.device.name, worker.device)
        return list(seen.values())

    # ---------------------------------------------------------------- dispatch
    def execution_result(self, graph: Graph, schedule: Schedule, worker: Worker,
                         plan: ExecutionPlan | None = None) -> ExecutionResult:
        """The memoised simulated execution of the plan on the worker's device.

        ``plan`` optionally seeds the pool's plan cache with an already
        lowered plan (e.g. from a :class:`~repro.engine.CompiledModel`), so
        the pool never re-lowers what the engine already produced.  The
        returned result is shared — treat it as immutable.  Its timeline is
        plan-local (starts at 0); dispatch tracing re-bases the stage/kernel
        events at each dispatch's start time.
        """
        key = self._plan_key(graph, schedule, worker)
        if key not in self._result_cache:
            if plan is not None:
                self._plan_cache.setdefault(key, plan)
            plan = self._plan(key, graph, schedule)
            self._result_cache[key] = worker.executor.run(plan)
        return self._result_cache[key]

    def plan_latency_ms(self, graph: Graph, schedule: Schedule, worker: Worker,
                        plan: ExecutionPlan | None = None) -> float:
        """Deterministic execution latency of the plan on the worker's device.

        Convenience over :meth:`execution_result` (same cache, same seeding).
        """
        return self.execution_result(graph, schedule, worker, plan=plan).latency_ms

    def plan_latency_for(self, graph: Graph, schedule: Schedule, device: DeviceSpec,
                         plan: ExecutionPlan | None = None) -> float:
        """Plan latency on whichever worker runs ``device`` (they are identical).

        Lets schedule selection share the pool's lowered-plan/latency caches
        instead of lowering and simulating the same plan a second time; an
        engine-lowered ``plan`` seeds the cache (see :meth:`plan_latency_ms`).
        """
        for worker in self.workers:
            if worker.device.name == device.name:
                return self.plan_latency_ms(graph, schedule, worker, plan=plan)
        raise ValueError(f"no worker in the pool runs device {device.name!r}")

    def dispatch(
        self,
        graph: Graph,
        schedule: Schedule,
        worker: Worker,
        ready_ms: float,
        num_samples: int | None = None,
        plan: ExecutionPlan | None = None,
    ) -> DispatchResult:
        """Execute ``schedule`` for ``graph`` on ``worker``, advancing its horizon.

        ``num_samples`` is the real demand carried by the batch; it defaults to
        the graph's (possibly padded) batch size.  ``plan`` optionally seeds
        the plan cache with an engine-lowered plan (see
        :meth:`plan_latency_ms`).
        """
        execution_ms = self.plan_latency_ms(graph, schedule, worker, plan=plan)
        start_ms = max(worker.busy_until_ms, ready_ms)
        end_ms = start_ms + execution_ms
        worker.busy_until_ms = end_ms
        worker.batches_executed += 1
        worker.samples_executed += graph.batch_size if num_samples is None else num_samples
        worker.busy_ms += execution_ms
        return DispatchResult(
            worker_id=worker.worker_id,
            device=worker.device.name,
            ready_ms=ready_ms,
            start_ms=start_ms,
            end_ms=end_ms,
            execution_ms=execution_ms,
        )

    # ----------------------------------------------------------------- helpers
    def _plan_key(self, graph: Graph, schedule: Schedule, worker: Worker) -> tuple[str, int, str, str]:
        return (graph.name, graph.batch_size, worker.device.name, schedule.origin)

    def _plan(self, key: tuple[str, int, str, str], graph: Graph, schedule: Schedule) -> ExecutionPlan:
        if key not in self._plan_cache:
            self._plan_cache[key] = lower_schedule(graph, schedule)
        return self._plan_cache[key]

    # ------------------------------------------------------------- elasticity
    def add_worker(self, device: DeviceSpec, now_ms: float = 0.0) -> Worker:
        """Grow the pool by one worker of ``device`` (autoscaler scale-up).

        The new worker shares the pool's plan/latency caches (they are keyed
        by device name, not worker), so a replica of an already-served device
        type starts warm.
        """
        worker = Worker(
            worker_id=self._next_worker_id,
            device=device,
            executor=Executor(device, self.profile),
            busy_until_ms=now_ms,
            spawned_ms=now_ms,
        )
        self._next_worker_id += 1
        self.workers.append(worker)
        return worker

    def remove_worker(self, worker: Worker, now_ms: float = 0.0) -> None:
        """Retire ``worker`` from the pool (autoscaler scale-down).

        Only an idle worker may retire — the loop never removes one with a
        batch still executing — and the last worker can never leave.  The
        retired worker keeps its accounting and stays in :meth:`summary`.
        """
        if worker not in self.workers:
            raise ValueError(f"worker {worker.worker_id} is not in the pool")
        if len(self.workers) == 1:
            raise ValueError("cannot retire the last worker of the pool")
        if worker.busy_until_ms > now_ms:
            raise ValueError(
                f"worker {worker.worker_id} is busy until "
                f"{worker.busy_until_ms}ms; cannot retire it at {now_ms}ms"
            )
        self.workers.remove(worker)
        worker.retired_ms = now_ms
        self.retired.append(worker)

    def all_workers(self) -> list[Worker]:
        """Active plus retired workers, in worker-id order (accounting view)."""
        return sorted(self.workers + self.retired, key=lambda w: w.worker_id)

    def makespan_ms(self) -> float:
        """Latest completion over all workers (retired ones included)."""
        return max(worker.busy_until_ms for worker in self.all_workers())

    #: Metric families holding the per-worker busy/lifetime series — the
    #: single source of truth both utilisation summaries compute from.
    BUSY_METRIC = "serve.worker.busy_ms"
    LIFETIME_METRIC = "serve.worker.lifetime_ms"

    def export_utilization(self, metrics: MetricsRegistry) -> None:
        """Write the per-worker busy/lifetime series into ``metrics``.

        One gauge series per worker (labelled by worker id and device), busy
        milliseconds and lifetime milliseconds (spawn to retirement, or to
        the makespan while active).  :meth:`summary` and
        :meth:`group_summary` both read *this* series back — per-worker and
        per-group utilisation can no longer drift apart, because there is
        only one busy/lifetime bookkeeping to disagree with.
        """
        makespan = self.makespan_ms()
        busy = metrics.gauge(self.BUSY_METRIC, "milliseconds each worker spent executing")
        lifetime = metrics.gauge(self.LIFETIME_METRIC, "milliseconds each worker existed")
        for worker in self.all_workers():
            end_ms = makespan if worker.retired_ms is None else worker.retired_ms
            labels = {"worker": str(worker.worker_id), "device": worker.device.name}
            busy.set(worker.busy_ms, **labels)
            lifetime.set(max(0.0, end_ms - worker.spawned_ms), **labels)

    @staticmethod
    def _utilization(busy_ms: float, lifetime_ms: float) -> float:
        """The one busy/lifetime ratio (capped at 1) every summary uses."""
        return min(1.0, busy_ms / lifetime_ms) if lifetime_ms > 0 else 0.0

    def summary(self, metrics: MetricsRegistry | None = None) -> list[dict[str, object]]:
        """Per-worker accounting rows for reports (retired workers included).

        Utilisation comes from the :meth:`export_utilization` series; pass
        the run's registry as ``metrics`` to land the series there (the
        service does), or omit it for a throwaway one.
        """
        if metrics is None:
            metrics = MetricsRegistry()
        self.export_utilization(metrics)
        busy = metrics.gauge(self.BUSY_METRIC)
        lifetime = metrics.gauge(self.LIFETIME_METRIC)
        rows: list[dict[str, object]] = []
        for worker in self.all_workers():
            labels = {"worker": str(worker.worker_id), "device": worker.device.name}
            busy_ms = busy.value(**labels)
            rows.append(
                {
                    "worker": worker.worker_id,
                    "device": worker.device.name,
                    "batches": worker.batches_executed,
                    "samples": worker.samples_executed,
                    "busy_ms": busy_ms,
                    "utilization": self._utilization(busy_ms, lifetime.value(**labels)),
                }
            )
        return rows

    def group_summary(self, metrics: MetricsRegistry | None = None) -> list[dict[str, object]]:
        """Per-device-group accounting rows (one row per device type).

        ``utilization`` is the group's busy time divided by the group's total
        available time, so a group of idle replicas dilutes its own
        utilisation, not another group's — and both numbers are sums over the
        *same* per-worker series :meth:`summary` reads
        (:meth:`export_utilization`), so the group ratio is exactly the
        lifetime-weighted aggregate of the worker ratios.  On a fixed pool a
        worker's lifetime is the whole makespan as before, while a worker the
        autoscaler ran for only a slice of the run contributes only that
        slice to the denominator.  ``workers`` counts every worker that ever
        served in the group (pool churn included).
        """
        if metrics is None:
            metrics = MetricsRegistry()
        self.export_utilization(metrics)
        busy = metrics.gauge(self.BUSY_METRIC)
        lifetime = metrics.gauge(self.LIFETIME_METRIC)
        groups: dict[str, dict[str, object]] = {}
        for worker in self.all_workers():
            row = groups.setdefault(
                worker.device.name,
                {"device": worker.device.name, "workers": 0, "batches": 0,
                 "samples": 0, "busy_ms": 0.0, "lifetime_ms": 0.0},
            )
            labels = {"worker": str(worker.worker_id), "device": worker.device.name}
            row["workers"] += 1
            row["batches"] += worker.batches_executed
            row["samples"] += worker.samples_executed
            row["busy_ms"] += busy.value(**labels)
            row["lifetime_ms"] += lifetime.value(**labels)
        for row in groups.values():
            row["utilization"] = self._utilization(row["busy_ms"], row.pop("lifetime_ms"))
        return list(groups.values())
