"""Ending enumeration and the schedule-pruning strategy.

An *ending* of an operator set ``S`` (Section 4.1, Figure 4) is a subset
``S' ⊆ S`` such that every edge between ``S - S'`` and ``S'`` points *into*
``S'`` — equivalently, ``S'`` is successor-closed within ``S``.  The operators
of the last stage of any feasible schedule of ``S`` form an ending of ``S``,
which is what lets the dynamic program peel stages off the back of the graph.

To keep the bit-twiddling fast, the enumeration works on an integer bitmask
representation of operator subsets prepared once per block by
:class:`BlockIndex`.

The *pruning strategy* ``P(S, S')`` (Section 4.3) restricts which endings are
explored: an ending is admissible iff it has at most ``s`` groups and every
group contains at most ``r`` operators, where groups are the weakly connected
components of the induced subgraph.

The endings of a state depend only on the block's wiring and the pruning
strategy, never on operator attributes, so :class:`EndingLattice` records them
once per wiring: blocks that repeat a cell's wiring with other channel widths
(NasNet's normal cells, Inception's mixed blocks) reuse one enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..ir.graph import Graph

__all__ = ["PruningStrategy", "BlockIndex", "EndingLattice", "enumerate_endings",
           "ending_lattice", "clear_lattice_cache", "is_ending", "groups_of_mask"]


@dataclass(frozen=True)
class PruningStrategy:
    """The ``(r, s)`` pruning strategy of Section 4.3.

    ``max_group_size`` (``r``) bounds the number of operators in each group of
    an ending; ``max_groups`` (``s``) bounds the number of groups.  ``None``
    means unbounded.  The paper's default configuration is ``r = 3, s = 8``.
    """

    max_group_size: int | None = 3
    max_groups: int | None = 8

    def __post_init__(self) -> None:
        if self.max_group_size is not None and self.max_group_size < 1:
            raise ValueError("max_group_size must be >= 1 or None")
        if self.max_groups is not None and self.max_groups < 1:
            raise ValueError("max_groups must be >= 1 or None")

    @property
    def max_operators(self) -> int | None:
        """Upper bound on the size of an admissible ending (``r * s``)."""
        if self.max_group_size is None or self.max_groups is None:
            return None
        return self.max_group_size * self.max_groups

    def admits(self, group_sizes: Sequence[int]) -> bool:
        """Whether an ending with these group sizes satisfies the strategy."""
        if self.max_groups is not None and len(group_sizes) > self.max_groups:
            return False
        if self.max_group_size is not None and any(
            size > self.max_group_size for size in group_sizes
        ):
            return False
        return True

    @classmethod
    def unpruned(cls) -> "PruningStrategy":
        """The trivial strategy admitting every ending."""
        return cls(max_group_size=None, max_groups=None)

    def describe(self) -> str:
        r = "inf" if self.max_group_size is None else str(self.max_group_size)
        s = "inf" if self.max_groups is None else str(self.max_groups)
        return f"r={r}, s={s}"


class BlockIndex:
    """Bitmask bookkeeping for the operators of one block.

    Maps the block's operator names to bit positions in topological order and
    precomputes direct-successor and undirected-adjacency masks, which is all
    the ending enumeration and group computation need.
    """

    def __init__(self, graph: Graph, op_names: Sequence[str]):
        self.graph = graph
        self.names: list[str] = graph.topological_order(list(op_names))
        if len(self.names) != len(set(op_names)):
            missing = sorted(set(op_names) - set(self.names))
            raise KeyError(f"operators not in graph {graph.name!r}: {missing}")
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.n = n
        self.full_mask = (1 << n) - 1 if n else 0
        self.succ_mask = [0] * n
        self.pred_mask = [0] * n
        name_set = set(self.names)
        for name in self.names:
            v = self.index[name]
            for parent in graph.nodes[name].inputs:
                if parent in name_set:
                    u = self.index[parent]
                    self.succ_mask[u] |= 1 << v
                    self.pred_mask[v] |= 1 << u
        self.adj_mask = [self.succ_mask[i] | self.pred_mask[i] for i in range(n)]

    # ------------------------------------------------------------- conversions
    def mask_of(self, names: Sequence[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index[name]
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        # Walks the set bits only (lowest first, i.e. topological order):
        # the DP's endings are a few operators out of the whole block.
        names = self.names
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def bits(self, mask: int) -> Iterator[int]:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low


def groups_of_mask(block: BlockIndex, mask: int) -> list[int]:
    """Partition a subset (bitmask) into connected groups (list of bitmasks).

    Groups are the weakly connected components of the induced subgraph; two
    operators joined by an edge always share a group.
    """
    remaining = mask
    groups: list[int] = []
    while remaining:
        seed = remaining & -remaining
        component = seed
        frontier = seed
        while frontier:
            nxt = 0
            for bit in block.bits(frontier):
                nxt |= block.adj_mask[bit] & mask & ~component
            component |= nxt
            frontier = nxt
        groups.append(component)
        remaining &= ~component
    return groups


def is_ending(block: BlockIndex, subset: int, of: int) -> bool:
    """Whether ``subset`` is an ending of ``of`` (both bitmasks).

    ``subset`` must be a non-empty subset of ``of`` with no edge from
    ``subset`` to ``of - subset``.
    """
    if subset == 0 or subset & ~of:
        return False
    outside = of & ~subset
    for bit in block.bits(subset):
        if block.succ_mask[bit] & outside:
            return False
    return True


def enumerate_endings(
    block: BlockIndex,
    state: int,
    pruning: PruningStrategy | None = None,
) -> list[tuple[int, list[int]]]:
    """Every admissible ending of ``state`` with its group decomposition.

    Returns ``(ending_mask, group_masks)`` pairs in a deterministic order
    (depth-first, excluding each operator before including it — the order the
    DP's first-wins tie-breaking depends on).  Endings are exactly the
    non-empty successor-closed subsets of ``state``; the pruning strategy
    filters them by group count and group size.
    """
    pruning = pruning or PruningStrategy.unpruned()
    members = [i for i in range(block.n) if state >> i & 1]
    if not members:
        return []
    max_ops = pruning.max_operators
    max_groups = pruning.max_groups
    max_group_size = pruning.max_group_size
    succ_mask = block.succ_mask
    adj_mask = block.adj_mask

    # Process operators in reverse topological order so that by the time we
    # decide whether to include an operator, all of its successors (which have
    # larger topological indices) have already been decided.
    order = list(reversed(members))
    # Successors-inside-the-state per position, so the closedness check in the
    # hot recursion is two bitwise ops on precomputed masks.
    succ_in_state = [succ_mask[node] & state for node in order]
    include_bit = [1 << node for node in order]
    adj_of_position = [adj_mask[node] for node in order]
    last = len(order)
    out: list[tuple[int, list[int]]] = []
    append = out.append

    # The group decomposition is maintained incrementally along the DFS path
    # instead of recomputed at each leaf.  Positions are visited in order of
    # decreasing bit index, so a newly included operator always carries the
    # lowest bit of the partial ending: the group it forms (or merges into)
    # sorts first, and untouched groups keep their relative order — exactly
    # the ascending-lowest-bit order :func:`groups_of_mask` produces.  Groups
    # only ever merge as further operators are included, so a group that
    # exceeds ``max_group_size`` can never shrink back: the whole include
    # subtree is pruned on the spot rather than rejected leaf by leaf.
    def recurse(position: int, chosen: int, size: int, groups: tuple[int, ...]) -> None:
        if position == last:
            if chosen and (max_groups is None or len(groups) <= max_groups):
                append((chosen, list(groups)))
            return
        # Option 1: exclude this operator.
        recurse(position + 1, chosen, size, groups)
        # Option 2: include it, allowed only if all its successors inside the
        # state are already included (successor-closedness).
        if succ_in_state[position] & ~chosen:
            return
        if max_ops is not None and size >= max_ops:
            return
        bit = include_bit[position]
        adjacent = adj_of_position[position] & chosen
        if adjacent:
            merged = bit
            rest = []
            for group in groups:
                if group & adjacent:
                    merged |= group
                else:
                    rest.append(group)
            if max_group_size is not None and merged.bit_count() > max_group_size:
                return
            new_groups = (merged, *rest)
        else:
            new_groups = (bit, *groups)
        recurse(position + 1, chosen | bit, size + 1, new_groups)

    recurse(0, 0, 0, ())
    return out


class EndingLattice:
    """The admissible endings of every state visited so far, for one wiring.

    Each distinct ending gets a dense integer id in first-seen order:
    ``masks[id]`` is its bitmask and ``groups[id]`` its connected-group masks
    (a function of the mask alone).  ``endings[state]`` holds the ids of the
    state's endings in :func:`enumerate_endings` order, so a search reading
    the lattice visits, prices and tie-breaks exactly as one enumerating each
    state itself.  ``num_transitions`` counts the stored ids, the size the
    cache is bounded by.
    """

    __slots__ = ("endings", "masks", "groups", "num_transitions", "_ids")

    def __init__(self) -> None:
        self.endings: dict[int, tuple[int, ...]] = {}
        self.masks: list[int] = []
        self.groups: list[tuple[int, ...]] = []
        self.num_transitions = 0
        self._ids: dict[int, int] = {}

    def add(self, state: int, endings: list[tuple[int, list[int]]]) -> tuple[int, ...]:
        """Record ``state``'s enumerated endings; returns their ids."""
        ids = self._ids
        masks = self.masks
        state_ids = []
        for mask, group_masks in endings:
            ending_id = ids.get(mask)
            if ending_id is None:
                ending_id = ids[mask] = len(masks)
                masks.append(mask)
                self.groups.append(tuple(group_masks))
            state_ids.append(ending_id)
        result = self.endings[state] = tuple(state_ids)
        self.num_transitions += len(result)
        return result


#: Ending lattices keyed by ``(block wiring, pruning strategy)``, where the
#: wiring is the block's ``succ_mask`` tuple.  A lattice is a pure function of
#: its key, so sharing it cannot change a search.  Bounded by stored
#: transitions like the simulator's caches: a new lattice clears the whole
#: cache once it holds more than the limit, so a sweep of unpruned searches
#: keeps at most the latest huge lattice.
_LATTICE_CACHE: dict[tuple, EndingLattice] = {}
_LATTICE_CACHE_LIMIT = 1 << 18


def ending_lattice(block: BlockIndex, pruning: PruningStrategy) -> EndingLattice:
    """The shared lattice for ``block``'s wiring under ``pruning``."""
    key = (tuple(block.succ_mask), pruning)
    lattice = _LATTICE_CACHE.get(key)
    if lattice is None:
        stored = sum(cached.num_transitions for cached in _LATTICE_CACHE.values())
        if stored > _LATTICE_CACHE_LIMIT:
            _LATTICE_CACHE.clear()
        lattice = _LATTICE_CACHE[key] = EndingLattice()
    return lattice


def clear_lattice_cache() -> None:
    """Forget every shared ending lattice."""
    _LATTICE_CACHE.clear()
