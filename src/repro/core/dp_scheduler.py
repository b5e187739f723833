"""The Inter-Operator Scheduler: Algorithm 1 of the paper.

``IOSScheduler`` finds, for every block of a computation graph, the sequence of
stages (with per-stage parallelisation strategies) minimising total latency
according to a :class:`~repro.core.cost_model.CostModel`.  It implements the
three functions of Algorithm 1:

* ``INTER OPERATOR SCHEDULER`` — :meth:`IOSScheduler.optimize_block`
  (entry point + schedule reconstruction from ``choice[·]``),
* ``SCHEDULER`` — the memoised recursion over operator subsets
  (:meth:`IOSScheduler._scheduler`),
* ``GENERATE STAGE`` — delegated to :meth:`CostModel.generate_stage`.

Operator subsets are represented as bitmasks over a per-block
:class:`~repro.core.endings.BlockIndex`; endings are enumerated subject to the
``(r, s)`` pruning strategy of Section 4.3.

Modern CNNs stack blocks, so — exactly as the paper does (Section 4.2) — each
block is optimised independently and the per-block schedules are concatenated.
Structurally identical blocks (e.g. repeated NasNet cells) share one search via
a block fingerprint cache; blocks that only share their wiring (the same cell
with other channel widths) still search separately but share one ending
enumeration.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..ir.graph import Block, Graph
from .cost_model import CostModel, StageChoice
from .endings import BlockIndex, PruningStrategy, ending_lattice, enumerate_endings
from .memo import memo_enabled, schedule_memo
from .merge import can_merge
from .schedule import ParallelizationStrategy, Schedule, Stage
from .width import maximum_antichain_size

__all__ = [
    "SchedulerConfig",
    "BlockStats",
    "ScheduleResult",
    "IOSScheduler",
    "IOSVariant",
    "UnknownVariantError",
    "VALID_VARIANTS",
    "normalize_variant",
    "variant_label",
    "resolve_compile_jobs",
    "shutdown_search_pools",
]


#: Named strategy sets corresponding to the paper's IOS variants (Section 6.1).
IOSVariant = {
    "ios-both": (ParallelizationStrategy.CONCURRENT, ParallelizationStrategy.MERGE),
    "ios-parallel": (ParallelizationStrategy.CONCURRENT,),
    "ios-merge": (ParallelizationStrategy.MERGE,),
}

#: Canonical variant names, in the paper's presentation order.
VALID_VARIANTS = tuple(IOSVariant)


class UnknownVariantError(KeyError, ValueError):
    """An IOS variant name that :func:`normalize_variant` cannot resolve.

    Subclasses both :class:`KeyError` (the historical exception of
    ``SchedulerConfig.variant``) and :class:`ValueError` (what a bad
    user-supplied name morally is), so both idioms keep working.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


def normalize_variant(name: str) -> str:
    """Resolve a variant spelling to its canonical ``ios-*`` name.

    Accepts the canonical names plus the obvious drifted spellings seen in
    configs and CLIs — case differences, underscores instead of dashes, and
    the bare suffix (``"both"`` → ``"ios-both"``).  Every layer that keys on
    a variant (``SchedulerConfig.variant``, the serve registry, the CLI, the
    engine) funnels through this one function so the same variant can never
    land under two different keys.

    Raises :class:`UnknownVariantError` (a ``ValueError``) listing the valid
    variants on bad input.
    """
    if isinstance(name, str):
        key = name.strip().lower().replace("_", "-").replace(" ", "-")
        if key in IOSVariant:
            return key
        if f"ios-{key}" in IOSVariant:
            return f"ios-{key}"
    raise UnknownVariantError(
        f"unknown IOS variant {name!r}; valid variants: {', '.join(VALID_VARIANTS)}"
    )


def variant_label(config: "SchedulerConfig") -> str:
    """The canonical variant name whose strategy set ``config`` uses.

    Returns ``"custom"`` when the strategy set matches none of the named
    variants (only possible by constructing :class:`SchedulerConfig` by hand).
    """
    strategies = set(config.strategies)
    for name, named in IOSVariant.items():
        if strategies == set(named):
            return name
    return "custom"


@dataclass(frozen=True)
class SchedulerConfig:
    """Configuration of one IOS search."""

    #: Pruning strategy (r, s); the paper's default is r=3, s=8.
    pruning: PruningStrategy = PruningStrategy(max_group_size=3, max_groups=8)
    #: Which parallelisation strategies GENERATE STAGE may choose between.
    strategies: tuple[ParallelizationStrategy, ...] = IOSVariant["ios-both"]
    #: Reuse search results across structurally identical blocks.
    reuse_identical_blocks: bool = True

    @classmethod
    def variant(cls, name: str, pruning: PruningStrategy | None = None,
                reuse_identical_blocks: bool = True) -> "SchedulerConfig":
        """Build a config for one of the named IOS variants of the paper.

        The name goes through :func:`normalize_variant`, so drifted spellings
        (``"BOTH"``, ``"ios_merge"``) resolve to the canonical variant and bad
        names raise :class:`UnknownVariantError` listing the valid ones.
        """
        key = normalize_variant(name)
        return cls(
            pruning=pruning if pruning is not None else PruningStrategy(3, 8),
            strategies=IOSVariant[key],
            reuse_identical_blocks=reuse_identical_blocks,
        )


@dataclass
class BlockStats:
    """Search statistics for one block (feeds Table 1 and Figure 9).

    ``source`` records where the block's stages came from: ``"search"`` (a DP
    search ran inline), ``"parallel"`` (a worker process ran the search),
    ``"block-cache"`` (reused from an identical block of this scheduler),
    ``"memo"`` (reused from the process-wide schedule memo), ``"spliced"``
    (carried over unchanged from a prior compile by the engine's incremental
    path), or ``"empty"`` (no schedulable operators).
    """

    block_name: str
    num_operators: int
    width: int
    num_states: int = 0
    num_transitions: int = 0
    num_measurements: int = 0
    optimized_latency_ms: float = 0.0
    elapsed_s: float = 0.0
    reused_from: str | None = None
    #: Number of stages the block's schedule occupies (artifact block records).
    num_stages: int = 0
    source: str = "search"


@dataclass
class ScheduleResult:
    """Result of optimising a whole graph."""

    schedule: Schedule
    block_stats: list[BlockStats] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: The graph the schedule refers to.  Equal to the input graph unless the
    #: search was preceded by a rewrite pipeline (``Engine(passes=...)``), in
    #: which case the schedule's operator names only exist in this graph.
    graph: Graph | None = None
    #: Per-pass rewrite statistics when a pipeline ran, else ``None``.
    pass_stats: list | None = None

    @property
    def total_transitions(self) -> int:
        return sum(stats.num_transitions for stats in self.block_stats)

    @property
    def total_measurements(self) -> int:
        return sum(stats.num_measurements for stats in self.block_stats)

    @property
    def predicted_latency_ms(self) -> float:
        """Sum of optimal per-block stage latencies found by the DP."""
        return sum(stats.optimized_latency_ms for stats in self.block_stats)


class IOSScheduler:
    """Dynamic-programming inter-operator scheduler (Algorithm 1).

    Block searches are reused at three levels, all keyed on the same
    structural block fingerprint: the per-instance ``_block_cache`` (repeated
    blocks inside one scheduler, e.g. NasNet cells), the process-wide
    :func:`~repro.core.memo.schedule_memo` (identical blocks across engines /
    registries, gated on the cost model's :meth:`~CostModel.signature`), and —
    for a cold multi-block graph — an optional multiprocessing fan-out that
    searches independent blocks in worker processes (``optimize_graph(...,
    jobs=N)``) and seeds the caches with their results in deterministic block
    order.  Every path yields byte-identical schedules to the plain serial
    search; only wall-clock time and *where* measurements happen differ.
    """

    def __init__(self, cost_model: CostModel, config: SchedulerConfig | None = None):
        self.cost_model = cost_model
        self.config = config or SchedulerConfig()
        #: Cache of per-block results keyed by structural fingerprint.
        self._block_cache: dict[tuple, tuple[list[tuple[tuple[int, ...], ParallelizationStrategy]], BlockStats]] = {}
        #: Fingerprints searched by worker processes but not yet consumed: the
        #: first block that uses one reports the worker's full search stats
        #: instead of a cache-hit stub.
        self._fresh_results: set[tuple] = set()
        self._memo_signature_cache: tuple | None | str = "unset"

    # ----------------------------------------------------------------- memo
    def _memo_signature(self) -> tuple | None:
        """The cost model's shareable signature, combined with the config."""
        if self._memo_signature_cache == "unset":
            signature = self.cost_model.signature()
            self._memo_signature_cache = None if signature is None else signature
        return self._memo_signature_cache  # type: ignore[return-value]

    def _rebind(self, index: BlockIndex, cached_stages) -> list[Stage]:
        """Bind position-based cached stages to this block's operator names."""
        names = index.names
        return [
            Stage(tuple(names[i] for i in positions), strategy)
            for positions, strategy in cached_stages
        ]

    # --------------------------------------------------------------- block DP
    def optimize_block(
        self, graph: Graph, block: Block, *, use_memo: bool = True
    ) -> tuple[list[Stage], BlockStats]:
        """Find an optimal stage decomposition for one block.

        Returns the stages (in execution order) and the search statistics.
        ``use_memo=False`` skips the process-wide memo in both directions
        (the per-instance block cache still applies).
        """
        op_names = graph.schedulable_names(block)
        if not op_names:
            return [], BlockStats(
                block_name=block.name, num_operators=0, width=0, source="empty"
            )

        fingerprint = self._block_fingerprint(graph, op_names)
        index = BlockIndex(graph, op_names)

        if self.config.reuse_identical_blocks:
            entry = self._block_cache.get(fingerprint)
            if entry is not None:
                cached_stages, cached_stats = entry
                stages = self._rebind(index, cached_stages)
                if fingerprint in self._fresh_results:
                    # First consumption of a worker-process search: report the
                    # real search stats (the work happened, in a worker).
                    self._fresh_results.discard(fingerprint)
                    return stages, replace(cached_stats, block_name=block.name)
                stats = replace(
                    cached_stats,
                    block_name=block.name,
                    num_measurements=0,
                    elapsed_s=0.0,
                    reused_from=cached_stats.block_name,
                    source="block-cache",
                )
                return stages, stats

        use_memo = use_memo and self.config.reuse_identical_blocks
        memo = schedule_memo() if use_memo and memo_enabled() else None
        signature = self._memo_signature() if memo is not None else None
        if memo is not None and signature is not None:
            entry = memo.get(signature, fingerprint)
            if entry is not None:
                cached_stages, cached_stats = entry
                self._block_cache[fingerprint] = entry
                stages = self._rebind(index, cached_stages)
                stats = replace(
                    cached_stats,
                    block_name=block.name,
                    num_measurements=0,
                    elapsed_s=0.0,
                    reused_from=f"memo:{cached_stats.block_name}",
                    source="memo",
                )
                return stages, stats

        start = time.perf_counter()
        measurements_before = self.cost_model.num_measurements

        stage_masks, optimal_latency, num_states, transitions = self._search_block_dp(
            graph, index, block.name
        )

        names_of = index.names_of
        stages = [Stage(names_of(mask), strategy) for mask, strategy in stage_masks]
        stats = BlockStats(
            block_name=block.name,
            num_operators=index.n,
            width=maximum_antichain_size(graph, op_names),
            num_states=num_states,
            num_transitions=transitions,
            num_measurements=self.cost_model.num_measurements - measurements_before,
            optimized_latency_ms=optimal_latency,
            elapsed_s=time.perf_counter() - start,
            num_stages=len(stages),
            source="search",
        )

        cached_stages = [
            (tuple(i for i in range(index.n) if mask >> i & 1), strategy)
            for mask, strategy in stage_masks
        ]
        if self.config.reuse_identical_blocks:
            self._block_cache[fingerprint] = (cached_stages, stats)
        if memo is not None and signature is not None:
            memo.put(signature, fingerprint, cached_stages, stats)
        return stages, stats

    def _search_block_dp(
        self, graph: Graph, index: BlockIndex, block_name: str
    ) -> tuple[list[tuple[int, ParallelizationStrategy]], float, int, int]:
        """The DP search proper: SCHEDULER(S) over the block's subset lattice.

        Returns ``(stage_masks, optimal_latency, num_states, transitions)``.
        Each state's endings come from the
        :class:`~repro.core.endings.EndingLattice` shared by
        every block with this block's wiring, enumerated on the first visit of
        a state.  Candidate endings recur across states, so their GENERATE
        STAGE result is cached per ending id — the latency values (and hence
        the chosen schedule) are identical to pricing every transition
        directly.
        """
        config = self.config
        pruning = config.pruning
        strategies = config.strategies
        cost_model = self.cost_model
        generate_stage = cost_model.generate_stage
        names_of = index.names_of
        merge_only = ParallelizationStrategy.CONCURRENT not in strategies

        lattice = ending_lattice(index, pruning)
        state_endings = lattice.endings
        ending_masks = lattice.masks
        ending_groups = lattice.groups
        cost: dict[int, float] = {0: 0.0}
        choice: dict[int, tuple[int, ParallelizationStrategy]] = {}
        #: GENERATE STAGE result per ending id: ``False`` until priced,
        #: ``None`` for endings skipped by the IOS-Merge variant (unmergeable
        #: multi-operator sets).
        ending_choice: list[StageChoice | None | bool] = [False] * len(ending_masks)
        transitions = 0
        inf = float("inf")

        def scheduler(state: int) -> float:
            """SCHEDULER(S): minimal latency over all schedules of ``state``."""
            nonlocal transitions
            cached = cost.get(state)
            if cached is not None:
                return cached
            ending_ids = state_endings.get(state)
            if ending_ids is None:
                ending_ids = lattice.add(state, enumerate_endings(index, state, pruning))
                ending_choice.extend([False] * (len(ending_masks) - len(ending_choice)))
            best = inf
            best_choice: tuple[int, ParallelizationStrategy] | None = None
            for ending_id in ending_ids:
                ending = ending_masks[ending_id]
                stage_choice = ending_choice[ending_id]
                if stage_choice is False:
                    op_subset = names_of(ending)
                    if merge_only and len(op_subset) > 1 and not can_merge(graph, op_subset):
                        # The IOS-Merge variant only forms multi-operator
                        # stages by merging; unmergeable endings degenerate to
                        # single-operator stages, so skip them (Section 6.1:
                        # IOS-Merge equals the sequential schedule on
                        # RandWire/NasNet).
                        ending_choice[ending_id] = None
                        continue
                    # The enumeration already yields the ending's connected
                    # groups (ordered and topo-sorted exactly like
                    # ``connected_groups``), so pass them through and spare
                    # the cost model a recomputation per measurement.
                    groups = [names_of(mask) for mask in ending_groups[ending_id]]
                    stage_choice = generate_stage(graph, op_subset, strategies, groups)
                    ending_choice[ending_id] = stage_choice
                elif stage_choice is None:
                    continue
                transitions += 1
                total = scheduler(state & ~ending) + stage_choice.latency_ms
                if total < best:
                    best = total
                    best_choice = (ending, stage_choice.strategy)
            if best_choice is None:
                raise RuntimeError(
                    f"no admissible ending found for a state of block {block_name!r}; "
                    "the pruning strategy is too restrictive"
                )
            cost[state] = best
            choice[state] = best_choice
            return best

        optimal_latency = scheduler(index.full_mask)

        # Schedule construction (INTER OPERATOR SCHEDULER, L6-11): walk the
        # recorded choices from the full set back to the empty set.
        reversed_stages: list[tuple[int, ParallelizationStrategy]] = []
        state = index.full_mask
        while state:
            ending, strategy = choice[state]
            reversed_stages.append((ending, strategy))
            state &= ~ending
        stage_masks = list(reversed(reversed_stages))
        return stage_masks, optimal_latency, len(cost) - 1, transitions

    # ------------------------------------------------------- parallel fan-out
    def _parallel_warm_cache(
        self, graph: Graph, blocks: Sequence[Block], jobs: int, use_memo: bool
    ) -> None:
        """Search independent uncached blocks in worker processes.

        Results seed the block cache (and memo) in deterministic block order,
        so the subsequent serial pass replays them exactly as an inline search
        would have produced them.  Falls back to the serial path silently when
        the cost model cannot be cloned (``spawn() is None``) and with a
        warning when the pool itself fails.
        """
        if jobs <= 1 or not self.config.reuse_identical_blocks:
            return
        spawned = self.cost_model.spawn()
        if spawned is None:
            return
        memo = schedule_memo() if use_memo and memo_enabled() else None
        signature = self._memo_signature() if memo is not None else None

        tasks: list[tuple[str, tuple]] = []
        seen: set[tuple] = set()
        for block in blocks:
            op_names = graph.schedulable_names(block)
            if not op_names:
                continue
            fingerprint = self._block_fingerprint(graph, op_names)
            if fingerprint in seen or fingerprint in self._block_cache:
                continue
            if memo is not None and signature is not None and memo.contains(signature, fingerprint):
                continue
            seen.add(fingerprint)
            tasks.append((block.name, fingerprint))
        if len(tasks) < 2:
            return

        try:
            pool = _get_search_pool(jobs)
            futures = [
                pool.submit(_search_block_worker, (graph, name, self.config, spawned))
                for name, _ in tasks
            ]
            for (name, fingerprint), future in zip(tasks, futures):
                cached_stages, stats = future.result()
                self._block_cache[fingerprint] = (cached_stages, stats)
                self._fresh_results.add(fingerprint)
                if memo is not None and signature is not None:
                    memo.put(signature, fingerprint, cached_stages, stats)
        except Exception as error:  # pragma: no cover - environment dependent
            warnings.warn(
                f"parallel block search failed ({error!r}); continuing serially",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------- whole graph
    def optimize_graph(
        self,
        graph: Graph,
        *,
        jobs: int = 1,
        precomputed: dict[str, tuple[list[Stage], BlockStats]] | None = None,
        use_memo: bool = True,
    ) -> ScheduleResult:
        """Optimise every block of ``graph`` and concatenate the block schedules.

        This is the search primitive :meth:`repro.engine.Engine.compile`
        builds on; rewriting the graph first is the engine's ``passes`` stage.
        """
        start = time.perf_counter()
        schedule = Schedule(graph_name=graph.name, origin=self._origin_label())
        all_stats: list[BlockStats] = []
        precomputed = precomputed or {}
        if jobs > 1:
            pending = [b for b in graph.blocks if b.name not in precomputed]
            self._parallel_warm_cache(graph, pending, jobs, use_memo)
        for block in graph.blocks:
            entry = precomputed.get(block.name)
            if entry is not None:
                stages, stats = entry
            else:
                stages, stats = self.optimize_block(graph, block, use_memo=use_memo)
            if stats.num_stages == 0 and stages:
                stats.num_stages = len(stages)
            schedule.extend(stages)
            all_stats.append(stats)
        schedule.validate(graph)
        return ScheduleResult(
            schedule=schedule,
            block_stats=all_stats,
            elapsed_s=time.perf_counter() - start,
            graph=graph,
        )

    # ----------------------------------------------------------------- helpers
    def _origin_label(self) -> str:
        label = variant_label(self.config)
        if label == "custom":
            label = "ios-merge" if ParallelizationStrategy.MERGE in self.config.strategies else "ios-parallel"
        return f"{label} ({self.config.pruning.describe()})"

    def _block_fingerprint(self, graph: Graph, op_names: Sequence[str]) -> tuple:
        """Structural fingerprint of a block: operator configs + local wiring.

        Two blocks with identical fingerprints have isomorphic internal
        structure, identical operator attributes and identical input shapes,
        so their optimal schedules are identical up to operator renaming.
        """
        order = graph.topological_order(list(op_names))
        position = {name: i for i, name in enumerate(order)}
        entries = []
        for name in order:
            op = graph.nodes[name]
            local_inputs = tuple(
                position[p] if p in position else f"ext:{graph.nodes[p].output_shape}"
                for p in op.inputs
            )
            attrs = tuple(sorted((k, str(v)) for k, v in op.attrs().items()))
            entries.append((op.kind, attrs, local_inputs, str(op.output_shape)))
        return (
            tuple(entries),
            self.config.pruning,
            tuple(self.config.strategies),
        )


# --------------------------------------------------------------------------- #
# Parallel search workers                                                      #
# --------------------------------------------------------------------------- #
def _search_block_worker(payload: tuple) -> tuple[list, BlockStats]:
    """Search one block in a worker process.

    ``payload`` is ``(graph, block_name, config, cost_model)`` where the cost
    model is a fresh clone from :meth:`CostModel.spawn`.  Returns the
    position-based cached stages (rename-invariant, the block-cache encoding)
    and the search stats, which the parent seeds into its caches.
    """
    graph, block_name, config, cost_model = payload
    scheduler = IOSScheduler(cost_model, config)
    block = next(b for b in graph.blocks if b.name == block_name)
    _stages, stats = scheduler.optimize_block(graph, block, use_memo=False)
    op_names = graph.schedulable_names(block)
    fingerprint = scheduler._block_fingerprint(graph, op_names)
    cached_stages, _ = scheduler._block_cache[fingerprint]
    stats.source = "parallel"
    return cached_stages, stats


_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_search_pool(jobs: int) -> ProcessPoolExecutor:
    """A cached process pool with ``jobs`` workers (fork context on POSIX)."""
    pool = _POOLS.get(jobs)
    if pool is None:
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
        _POOLS[jobs] = pool
    return pool


def shutdown_search_pools() -> None:
    """Shut down every cached search pool (registered at interpreter exit)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_search_pools)


def resolve_compile_jobs(jobs: int | str | None = None) -> int:
    """Resolve a compile-parallelism setting to a concrete worker count.

    ``None`` reads the ``REPRO_COMPILE_JOBS`` environment variable (default
    ``1`` — serial).  ``"auto"``, ``"0"`` or any non-positive number mean
    "one worker per CPU".  Anything else must be a positive integer.
    """
    if jobs is None:
        jobs = os.environ.get("REPRO_COMPILE_JOBS", "1")
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text in ("auto", "0"):
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(text or "1")
        except ValueError:
            raise ValueError(
                f"invalid compile jobs value {jobs!r}; expected a positive "
                "integer, '0' or 'auto'"
            ) from None
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)
