"""Stage-latency cost models.

IOS is *profile based*: ``GENERATE STAGE`` measures the latency of a candidate
stage under both parallelisation strategies directly on the hardware and keeps
the better one (Algorithm 1, L23-33).  The :class:`CostModel` interface below
is that latency oracle; :class:`SimulatedCostModel` backs it with the
simulated device and :class:`~repro.runtime.profiler.Profiler`, and
:class:`FlopsCostModel` is a cheap analytical stand-in used by tests and by
the contention-model ablation.

A search prices each block's endings with one :class:`StagePricer`, from the
ending's bitmask and connected-group masks alone.  The simulated model's
pricer holds every operator's kernel values and every group's simulator
stream key, so operator names and
:class:`~repro.runtime.executor.ExecutionStage` objects appear only when a
schedule is lowered (:mod:`repro.core.lowering`).

Stage measurements are memoised per cost model, keyed by graph name, batch
size, graph fingerprint, the stage's operator set (order-insensitive: a mask
over the graph's operator names) and its strategy.  A miss is a measurement:
it is what ``num_measurements`` and the profiler's ``total_profiling_ms``
count, so this cache defines a compile's reported optimisation cost.  Within
one search the DP already prices each candidate ending once, so hits come
from searching the same graph again with the same model, or from the
name-based :meth:`CostModel.stage_latency`.  The cache is pure: a hit returns
exactly the latency a new measurement would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ..hardware.contention import kernel_values
from ..hardware.device import DeviceSpec
from ..hardware.kernel import CUDNN_PROFILE, KernelProfile, build_kernel
from ..hardware.streams import key_stage_latency_ms
from ..ir.graph import Graph
from ..runtime.profiler import Profiler
from .endings import BlockIndex, groups_of_mask
from .merge import build_merged_operator, can_merge, merge_classes
from .schedule import ParallelizationStrategy

__all__ = ["StageChoice", "CostModel", "StagePricer", "SimulatedCostModel", "FlopsCostModel"]

CONCURRENT = ParallelizationStrategy.CONCURRENT
MERGE = ParallelizationStrategy.MERGE


@dataclass(frozen=True)
class StageChoice:
    """Outcome of GENERATE STAGE for one candidate stage."""

    latency_ms: float
    strategy: ParallelizationStrategy


class CostModel(ABC):
    """Latency oracle used by the dynamic-programming scheduler."""

    def __init__(self) -> None:
        #: Number of distinct stage latencies actually measured (cache misses).
        self.num_measurements = 0
        #: Per graph version ``(name, batch size, fingerprint)``: the bit of
        #: every operator name seen so far, and the measured latencies keyed
        #: by ``(operator-set mask, strategy)``.
        self._cache: dict[tuple, tuple[dict[str, int], dict[tuple, float]]] = {}

    # --------------------------------------------------------------- interface
    @abstractmethod
    def _measure_stage(
        self,
        graph: Graph,
        op_names: tuple[str, ...],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]],
    ) -> float:
        """Measure (simulate) the latency of one stage; no caching.

        ``groups`` is the stage's connected-group decomposition, exactly as
        :func:`~repro.core.schedule.connected_groups` returns it.
        """

    def signature(self) -> tuple | None:
        """Hashable identity of this model's latency function, or ``None``.

        Two cost models with equal signatures return identical latencies for
        every stage, so their block searches are interchangeable — this is the
        key the process-wide :class:`~repro.core.memo.ScheduleMemo` shares
        results under.  ``None`` (the default) means "not shareable": unknown
        subclasses and noisy profilers must keep their searches private.
        """
        return None

    def spawn(self) -> "CostModel | None":
        """A fresh, state-free clone for a worker process, or ``None``.

        Used by the multiprocessing search fan-out: each worker prices stages
        on its own clone (empty measurement cache, zero counters).  ``None``
        (the default) means this model cannot be cloned deterministically and
        parallel search must fall back to serial.
        """
        return None

    def stage_pricer(self, index: BlockIndex) -> "StagePricer":
        """The pricer a search prices ``index``'s block with."""
        return StagePricer(self, index)

    def _one_stage(self, graph: Graph, op_names: Sequence[str],
                   groups: Sequence[Sequence[str]] | None) -> tuple["StagePricer", int, list]:
        """A pricer over ``op_names`` alone, with their mask and group masks."""
        index = BlockIndex(graph, op_names)
        full = index.full_mask
        masks = groups_of_mask(index, full) if groups is None else list(map(index.mask_of, groups))
        return self.stage_pricer(index), full, masks

    # ----------------------------------------------------------------- public
    def stage_latency(
        self,
        graph: Graph,
        op_names: Sequence[str],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]] | None = None,
    ) -> float:
        """Memoised latency of executing ``op_names`` as one stage."""
        pricer, mask, masks = self._one_stage(graph, op_names, groups)
        return pricer.stage_latency(mask, masks, strategy)

    def generate_stage(self, graph: Graph, op_names: Sequence[str],
                       strategies: Sequence[ParallelizationStrategy] | None = None,
                       groups: Sequence[Sequence[str]] | None = None) -> StageChoice:
        """GENERATE STAGE: pick the better parallelisation strategy for a stage.

        ``strategies`` restricts the candidates (IOS-Parallel considers only
        concurrent execution, IOS-Merge only operator merge, IOS-Both both).
        If operator merge is requested but the operators cannot be merged its
        latency is infinite, forcing concurrent execution — and if *only*
        merge was requested, concurrent execution of a single sequential group
        is used as the fallback, mirroring how IOS-Merge degenerates to the
        sequential schedule on RandWire/NasNet (Section 6.1).
        """
        pricer, mask, masks = self._one_stage(graph, op_names, groups)
        return pricer.generate_stage(
            mask, masks, (CONCURRENT, MERGE) if strategies is None else strategies
        )

    def cache_size(self) -> int:
        return sum(len(prices) for _bits, prices in self._cache.values())

    def clear_cache(self) -> None:
        self._cache.clear()


class StagePricer:
    """GENERATE STAGE on the bitmasks of one block's :class:`BlockIndex`.

    ``groups`` are an ending's connected-group masks, in
    :func:`~repro.core.schedule.connected_groups` order.  MERGE eligibility is
    first a :func:`~repro.core.merge.merge_classes` mask test, so ``can_merge``
    runs only on endings that pass it.  Prices live in the model's cache, so
    every pricer over one graph version hits and misses on the same entries;
    a miss goes to :meth:`CostModel._measure_stage`.
    """

    def __init__(self, model: CostModel, index: BlockIndex):
        self.model = model
        self.index = index
        graph = index.graph
        # The structural fingerprint keeps the cache honest across graph
        # *versions*: an incremental recompile mutates a block while keeping
        # the graph name and operator names, and must not see stale prices.
        key = (graph.name, graph.batch_size, graph.fingerprint())
        bits, self._prices = model._cache.setdefault(key, ({}, {}))
        #: Per operator index, its bit in cache masks; new names take the next.
        self._cache_bits = [1 << bits.setdefault(name, len(bits)) for name in index.names]
        self._merge_class = merge_classes(graph, index.names)

    def mergeable(self, mask: int) -> bool:
        """Whether the operators of ``mask`` can execute as one merged operator."""
        if not mask & (mask - 1) or mask & ~self._merge_class[(mask & -mask).bit_length() - 1]:
            return False
        return can_merge(self.index.graph, self.index.names_of(mask))

    def stage_latency(self, mask: int, groups: Sequence[int],
                      strategy: ParallelizationStrategy) -> float:
        """Memoised latency of executing ``mask`` as one stage."""
        cache_bits = self._cache_bits
        cache_mask = 0
        rest = mask
        while rest:
            low = rest & -rest
            cache_mask |= cache_bits[low.bit_length() - 1]
            rest ^= low
        key = (cache_mask, strategy)
        latency = self._prices.get(key)
        if latency is None:
            latency = self._prices[key] = self._measure(mask, groups, strategy)
            self.model.num_measurements += 1
        return latency

    def _measure(self, mask: int, groups: Sequence[int],
                 strategy: ParallelizationStrategy) -> float:
        names_of = self.index.names_of
        return self.model._measure_stage(
            self.index.graph, names_of(mask), strategy, [names_of(group) for group in groups]
        )

    def generate_stage(self, mask: int, groups: Sequence[int],
                       strategies: Sequence[ParallelizationStrategy]) -> StageChoice:
        """:meth:`CostModel.generate_stage` for the stage ``mask``."""
        best: StageChoice | None = None
        for strategy in strategies:
            if strategy is MERGE and not self.mergeable(mask):
                continue
            latency = self.stage_latency(mask, groups, strategy)
            if best is None or latency < best.latency_ms:
                best = StageChoice(latency_ms=latency, strategy=strategy)
        if best is None:
            # Only MERGE was requested and the stage is not mergeable.
            latency = self.stage_latency(mask, groups, CONCURRENT)
            best = StageChoice(latency_ms=latency, strategy=CONCURRENT)
        return best


class _SimulatedPricer(StagePricer):
    """Measures on simulator keys: per operator its kernel values (``None``
    without a kernel), per group mask the stream built from them.
    """

    def __init__(self, model: "SimulatedCostModel", index: BlockIndex):
        super().__init__(model, index)
        kernels = [build_kernel(index.graph.nodes[name], model.device, model.profile)
                   for name in index.names]
        self._values = [None if kernel is None else kernel_values(kernel) for kernel in kernels]
        self._streams: dict[int, tuple] = {}

    def _stream(self, group: int) -> tuple:
        stream = self._streams.get(group)
        if stream is None:
            values = self._values
            stream = self._streams[group] = tuple(
                values[i] for i in self.index.bits(group) if values[i] is not None
            )
        return stream

    def _measure(self, mask: int, groups: Sequence[int],
                 strategy: ParallelizationStrategy) -> float:
        model: SimulatedCostModel = self.model  # type: ignore[assignment]
        if strategy is MERGE and mask & (mask - 1):
            merged = build_merged_operator(self.index.graph, self.index.names_of(mask)).merged
            streams = ((kernel_values(build_kernel(merged, model.device, model.profile)),),)
        else:
            streams = tuple([stream for stream in map(self._stream, groups) if stream])
        return model.profiler.measure_latency(key_stage_latency_ms(streams, model.device))


class SimulatedCostModel(CostModel):
    """Cost model that measures stages on the simulated GPU.

    This is the configuration used by every experiment: it mirrors the paper's
    methodology of profiling each candidate stage on the target device with the
    target batch size.
    """

    def __init__(
        self,
        device: DeviceSpec,
        profile: KernelProfile = CUDNN_PROFILE,
        warmup: int = 1,
        repeats: int = 3,
        noise_std: float = 0.0,
        seed: int = 0,
    ):
        super().__init__()
        self.device = device
        self.profile = profile
        self.profiler = Profiler(
            device, profile, warmup=warmup, repeats=repeats, noise_std=noise_std, seed=seed
        )

    def stage_pricer(self, index: BlockIndex) -> StagePricer:
        return _SimulatedPricer(self, index)

    def _measure_stage(
        self,
        graph: Graph,
        op_names: tuple[str, ...],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]],
    ) -> float:
        pricer, mask, masks = self._one_stage(graph, op_names, groups)
        return pricer._measure(mask, masks, strategy)

    def signature(self) -> tuple | None:
        """Shareable identity: device, profile, and measurement protocol.

        Noisy profilers return ``None`` — their measurements depend on RNG
        state, so two searches of the same block can legitimately disagree.
        The kernel profile is keyed structurally (name, efficiency table,
        launch-overhead scale), so two equal profiles share even when they are
        distinct objects.
        """
        profiler = self.profiler
        if profiler.noise_std != 0.0:
            return None
        profile = self.profile
        return (
            "simulated",
            self.device,
            (
                profile.name,
                tuple(sorted(profile.efficiency.items())),
                profile.default_efficiency,
                profile.launch_overhead_scale,
            ),
            profiler.warmup,
            profiler.repeats,
        )

    def spawn(self) -> "SimulatedCostModel | None":
        if self.profiler.noise_std != 0.0:
            return None
        return SimulatedCostModel(
            self.device,
            self.profile,
            warmup=self.profiler.warmup,
            repeats=self.profiler.repeats,
        )


class FlopsCostModel(CostModel):
    """Analytical cost model: latency proportional to FLOPs, with a fixed
    per-operator overhead and an idealised speed-up for concurrent groups.

    Useful for fast unit tests of the dynamic program (its optima are easy to
    compute by hand) and as the baseline of the contention-model ablation
    benchmark; not used for the paper-reproduction figures.
    """

    def __init__(self, flops_per_ms: float = 1e9, overhead_ms: float = 0.01):
        super().__init__()
        if flops_per_ms <= 0:
            raise ValueError("flops_per_ms must be positive")
        self.flops_per_ms = flops_per_ms
        self.overhead_ms = overhead_ms

    def signature(self) -> tuple | None:
        return ("flops", self.flops_per_ms, self.overhead_ms)

    def spawn(self) -> "FlopsCostModel":
        return FlopsCostModel(flops_per_ms=self.flops_per_ms, overhead_ms=self.overhead_ms)

    def _measure_stage(
        self,
        graph: Graph,
        op_names: tuple[str, ...],
        strategy: ParallelizationStrategy,
        groups: Sequence[Sequence[str]],
    ) -> float:
        if strategy is ParallelizationStrategy.MERGE and len(op_names) >= 2:
            merged = build_merged_operator(graph, op_names)
            return self.overhead_ms + merged.merged.flops() / self.flops_per_ms
        group_latencies = []
        for group in groups:
            flops = sum(graph.nodes[name].flops() for name in group)
            group_latencies.append(len(group) * self.overhead_ms + flops / self.flops_per_ms)
        return max(group_latencies) if group_latencies else 0.0
