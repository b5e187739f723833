"""Dynamic request batching.

Serving traffic arrives one request at a time, but the device is only well
utilised — and the specialised schedules only apply — when requests execute
together.  :class:`DynamicBatcher` implements the classic max-batch/max-wait
policy on the service's virtual clock:

* a batch is closed as **full** when admitting the next request would exceed
  ``max_batch_size`` samples;
* a batch is closed as **timeout** when the oldest queued request has waited
  ``max_wait_ms`` (the latency SLO knob);
* remaining requests are closed as **drain** when the stream ends.

The batcher is deliberately a pure function of the arrival sequence: given the
same requests it always forms the same batches, which keeps serving
experiments reproducible.  Schedule selection for a formed batch lives in
:class:`BatchSizeSelector`, which reuses the cross-evaluation idea of
:mod:`repro.core.specialization`: among the registry's specialised schedules
that can hold the batch, pick the one with the lowest measured latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..core.schedule import Schedule
from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile
from ..ir.graph import Graph
from .registry import ScheduleRegistry
from .request import FormedBatch, InferenceRequest

__all__ = ["BatchPolicy", "DynamicBatcher", "BatchSizeSelector"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batching policy."""

    #: Maximum samples per formed batch.
    max_batch_size: int = 16
    #: Maximum time the oldest request may wait before the batch is flushed.
    max_wait_ms: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be non-negative, got {self.max_wait_ms}")

    def close_deadline_ms(self, first_arrival_ms: float) -> float:
        """When a batch opened at ``first_arrival_ms`` must be flushed.

        The single home of the max-wait rule: the offline
        :class:`DynamicBatcher` and the online
        :class:`~repro.serve.loop.ServingLoop` both stamp batch-close
        deadlines with it, so the two execution models can never drift.
        """
        return first_arrival_ms + self.max_wait_ms


class DynamicBatcher:
    """Groups a time-ordered request stream into batches under a policy."""

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()

    def form_batches(self, requests: Iterable[InferenceRequest]) -> list[FormedBatch]:
        """Materialised list of :meth:`iter_batches`."""
        return list(self.iter_batches(requests))

    def iter_batches(self, requests: Iterable[InferenceRequest]) -> Iterator[FormedBatch]:
        """Replay the arrival sequence and yield batches in formation order.

        Requests must be sorted by ``arrival_ms`` (the traffic generators
        guarantee this).  A request larger than ``max_batch_size`` forms its
        own batch immediately — the service layer chunks a formed batch to
        the schedule ladder before dispatch (``InferenceService._chunk``).
        """
        policy = self.policy
        pending: list[InferenceRequest] = []
        pending_samples = 0
        deadline = 0.0
        last_arrival = float("-inf")

        def close(formed_ms: float, reason: str) -> FormedBatch:
            nonlocal pending, pending_samples
            batch = FormedBatch(requests=pending, formed_ms=formed_ms, close_reason=reason)
            pending = []
            pending_samples = 0
            return batch

        for request in requests:
            if request.arrival_ms < last_arrival:
                raise ValueError(
                    f"requests must arrive in order: {request.request_id} at "
                    f"{request.arrival_ms}ms after {last_arrival}ms"
                )
            last_arrival = request.arrival_ms

            # Flush any batch whose wait deadline passed before this arrival.
            if pending and request.arrival_ms > deadline:
                yield close(deadline, "timeout")

            if pending and pending_samples + request.num_samples > policy.max_batch_size:
                yield close(request.arrival_ms, "full")

            if not pending:
                deadline = policy.close_deadline_ms(request.arrival_ms)
            pending.append(request)
            pending_samples += request.num_samples

            if pending_samples >= policy.max_batch_size:
                yield close(request.arrival_ms, "full")

        if pending:
            yield close(deadline, "drain")


class BatchSizeSelector:
    """Chooses the batch-size-specialised schedule for a formed batch.

    The registry holds schedules for a ladder of batch sizes (e.g. 1, 2, 4,
    8, 16).  A batch of ``n`` samples is padded up to some rung ``c >= n`` and
    executed with the schedule specialised for ``c``; among all rungs that
    fit, the selector cross-evaluates the candidate schedules exactly as
    :func:`repro.core.specialization.specialize_for_batch_sizes` does and
    picks the lowest-latency one.  Measurements are memoised, so steady-state
    selection is a dictionary lookup.
    """

    def __init__(
        self,
        registry: ScheduleRegistry,
        batch_sizes: Sequence[int],
        profile: KernelProfile = CUDNN_PROFILE,
        measure: Callable[..., float] | None = None,
    ):
        if not batch_sizes:
            raise ValueError("batch_sizes ladder must not be empty")
        if len(set(batch_sizes)) != len(batch_sizes):
            raise ValueError(f"duplicate batch sizes in ladder: {batch_sizes}")
        self.registry = registry
        self.batch_sizes = sorted(batch_sizes)
        self.profile = profile
        #: How candidate latency is measured: a callable
        #: ``(graph, schedule, device, plan=...) -> float`` where ``plan`` is
        #: the engine-lowered plan of the candidate's compiled model.  The
        #: service injects the worker pool's cached measurement so plans are
        #: lowered at most once and simulated once.
        self._measure = measure or self._default_measure
        #: Memoised candidate latency keyed by (model, device, rung).
        self._latency_cache: dict[tuple[str, str, int], float] = {}
        #: Memoised selection keyed by (model, device, batch samples).
        self._choice_cache: dict[tuple[str, str, int], int] = {}

    @property
    def max_batch_size(self) -> int:
        """The largest ladder rung — the biggest batch the service can run."""
        return self.batch_sizes[-1]

    def select(self, model: str, num_samples: int, device: DeviceSpec) -> int:
        """The ladder rung whose specialised schedule should run this batch."""
        if num_samples > self.max_batch_size:
            raise ValueError(
                f"batch of {num_samples} samples exceeds the ladder maximum "
                f"{self.max_batch_size}; chunk it first"
            )
        cache_key = (model, device.name, num_samples)
        if cache_key in self._choice_cache:
            return self._choice_cache[cache_key]

        candidates = [c for c in self.batch_sizes if c >= num_samples]
        best_rung = candidates[0]
        best_latency = float("inf")
        for rung in candidates:
            latency = self._candidate_latency(model, rung, device)
            if latency < best_latency:
                best_rung, best_latency = rung, latency
        self._choice_cache[cache_key] = best_rung
        return best_rung

    def predicted_latency(self, model: str, num_samples: int,
                          device: DeviceSpec) -> float:
        """Predicted execution latency (ms) of a batch on ``device``.

        The latency of the ladder rung :meth:`select` would run the batch at,
        from the memoised cross-evaluation measurements.  This is what the
        device-aware routers rank workers with; calling it for a device with
        no registry entry triggers the cold compile, exactly like dispatching
        to that device would.
        """
        rung = self.select(model, num_samples, device)
        return self._candidate_latency(model, rung, device)

    def _default_measure(self, graph: Graph, schedule: Schedule, device: DeviceSpec,
                         plan) -> float:
        from ..runtime.executor import Executor

        return Executor(device, self.profile).run(plan).latency_ms

    def _candidate_latency(self, model: str, rung: int, device: DeviceSpec) -> float:
        key = (model, device.name, rung)
        if key not in self._latency_cache:
            compiled = self.registry.get_compiled(model, rung, device)
            self._latency_cache[key] = self._measure(
                compiled.graph, compiled.schedule, device, plan=compiled.plan
            )
        return self._latency_cache[key]
