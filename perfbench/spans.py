"""In-memory span recording and reversible call-site wrappers.

The traced benchmark run attributes wall time to the program's layers
without changing the program: :class:`Bindings` replaces a function or method
at the binding its callers look up (a module attribute, or a method on a class
and on every subclass that overrides it) with a wrapper that opens and closes
a span on a :class:`SpanRecorder`, then puts every original back.

Spans live in flat arrays (name id, parent index, start, end) so that a run
of a few million calls stays small; they are written out once, at the end.
A layer's *self time* is the duration of its spans minus the part covered by
their child spans, so the self times of all spans, the root included, add up
to the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "Bindings",
    "SpanRecorder",
    "count_wrapper",
    "iteration_wrapper",
    "layer_table",
    "resolve_owners",
    "self_times",
    "span_wrapper",
]


class SpanRecorder:
    """Nested spans of one thread, kept in memory until :meth:`dump`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: Work counts recorded at the same boundaries as the spans.
        self.counts: Counter = Counter()
        #: Calls in progress per counter, so only the outermost one counts.
        self.active: Counter = Counter()

    def name_index(self, name: str) -> int:
        """Interned id of a span name."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name_id: int) -> int:
        """Start a span as a child of the innermost open span; return its index."""
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        stack.append(index)
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        self.end[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while span {top} is innermost")

    def __len__(self) -> int:
        return len(self.start)

    def dump(self, path: Path) -> None:
        """Write every span column-wise: name id, parent index, start, end.

        Span ``i`` is ``names[name_id[i]]``, running from ``start[i]`` to
        ``end[i]`` (seconds) inside span ``parent[i]`` (``-1`` for a root).
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        columns = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(columns))


def self_times(recorder: SpanRecorder) -> dict[str, float]:
    """Self time per span name: duration minus the duration of direct children.

    Recursive and same-layer nesting needs no special case: a child's time is
    taken out of its parent and counted once, under the child's own name.
    """
    if recorder._stack:
        raise RuntimeError(f"{len(recorder._stack)} spans are still open")
    count = len(recorder)
    if count == 0:
        return {}
    start = np.array(recorder.start, dtype=float)
    duration = np.array(recorder.end, dtype=float) - start
    parent = np.array(recorder.parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=count)
    own = duration - covered
    per_name = np.bincount(
        np.array(recorder.name_id, dtype=np.int64), weights=own,
        minlength=len(recorder.names),
    )
    return {name: float(per_name[i]) for i, name in enumerate(recorder.names)}


def layer_table(
    self_s: dict[str, float], wall_s: float, root: str, layers: list[str]
) -> list[str]:
    """Rows of per-layer self time; the ``root`` span's self time is unaccounted."""
    rows = [f"{'layer':<22}{'self s':>12}{'share':>9}"]
    for layer in layers:
        value = self_s.get(layer, 0.0)
        if value:
            rows.append(f"{layer:<22}{value:>12.4f}{value / wall_s:>9.1%}")
    rest = self_s.get(root, 0.0)
    rows.append(f"{'unaccounted':<22}{rest:>12.4f}{rest / wall_s:>9.1%}")
    total = sum(self_s.get(layer, 0.0) for layer in layers) + rest
    rows.append(f"{'sum':<22}{total:>12.4f}   traced wall {wall_s:.4f} s")
    return rows


def resolve_owners(spec: str) -> tuple[list[Any], str]:
    """Objects holding the binding named by ``module:attr`` or ``module:Class.attr``.

    For a method, the owners are the class and every loaded subclass that
    defines its own override, so no override escapes the wrapper.
    """
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        if path not in vars(module):
            raise AttributeError(f"{module_name} has no attribute {path!r}")
        return [module], path
    class_name, attr = path.split(".")
    base = getattr(module, class_name)
    owners, pending, seen = [], [base], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            owners.append(cls)
        pending.extend(cls.__subclasses__())
    if not owners:
        raise AttributeError(f"{class_name} defines no {attr!r}")
    owners.sort(key=lambda cls: (cls.__module__, cls.__qualname__))
    return owners, attr


class Bindings:
    """Replaced bindings, each restorable to the exact original object."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._saved)


def span_wrapper(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    count: str | None = None,
    extract: Callable[[Counter, tuple, Any], None] | None = None,
) -> Callable:
    """``fn`` inside a span named ``name``.

    ``count`` names a call counter; with ``extract`` it also receives
    ``(counts, args, result)``.  Both fire only on the outermost call in
    progress for that counter, so an override calling ``super()`` counts once.
    """
    name_id = recorder.name_index(name)
    open_span, close_span = recorder.open, recorder.close
    counts, active = recorder.counts, recorder.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = open_span(name_id)
        active[count] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            active[count] -= 1
            close_span(index)
        if count is not None and not active[count]:
            counts[count] += 1
            if extract is not None:
                extract(counts, args, result)
        return result

    return wrapper


def iteration_wrapper(
    recorder: SpanRecorder, name: str, fn: Callable, count: str | None = None
) -> Callable:
    """``fn`` returning an iterator, with a span around every ``next()`` only.

    Creating the generator is not timed, and neither is the consumer's loop
    body between two items.  ``count`` counts the items yielded.
    """
    name_id = recorder.name_index(name)
    open_span, close_span, counts = recorder.open, recorder.close, recorder.counts

    def timed(iterator: Iterator) -> Iterator:
        advance = iterator.__next__
        yielded = 0
        try:
            while True:
                index = open_span(name_id)
                try:
                    item = advance()
                except StopIteration:
                    return
                finally:
                    close_span(index)
                yielded += 1
                yield item
        finally:
            if count is not None:
                counts[count] += yielded

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return timed(fn(*args, **kwargs))

    return wrapper


def count_wrapper(recorder: SpanRecorder, count: str, fn: Callable) -> Callable:
    """``fn`` counting its outermost calls, with no span."""
    counts, active = recorder.counts, recorder.active

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not active[count]:
            counts[count] += 1
        active[count] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            active[count] -= 1

    return wrapper
