"""Metrics registry: counters, gauges and histograms with deterministic export.

Every layer of the system used to keep its own ad-hoc tallies (the serving
loop counted executions in a dict, admission kept rejection reasons, the
autoscaler its events).  The :class:`MetricsRegistry` replaces that parallel
bookkeeping with one typed store:

* :class:`Counter` — monotonically increasing totals (requests offered,
  admission rejects by reason, executions per batch size);
* :class:`Gauge` — last-written values (queue depth, pool size, per-worker
  busy/lifetime milliseconds);
* :class:`Histogram` — full value distributions with the same percentile
  arithmetic the serving report uses (latency, queue delay, batch occupancy).

Each metric is a *family*: series within a family are keyed by labels
(``counter.inc(reason="predicted-deadline-miss")``), so one counter holds the
whole breakdown.  :meth:`MetricsRegistry.snapshot` exports everything as one
nested dict with sorted keys, and :meth:`MetricsRegistry.to_json` renders it
byte-deterministically — the same run always dumps the same document.

Hot loops bind their series once: :meth:`MetricsRegistry.series` returns a
:class:`Series` handle whose label key is computed at bind time, so each
write skips the family lookup and the label sort; :class:`SeriesByValue`
does the same for a label whose value varies (one handle per value).
"""

from __future__ import annotations

import json
from functools import partial
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "HISTOGRAM_QUANTILES",
    "QUANTILE_DECIMALS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Series",
    "SeriesByValue",
    "quantiles_reference",
]

#: Internal series key: labels as a sorted tuple of (name, value) pairs.
_LabelKey = tuple

#: Histogram quantiles exported by snapshots, in export order.
HISTOGRAM_QUANTILES = (50.0, 95.0, 99.0)

#: Decimal places snapshot quantiles round to.  ``np.percentile`` interpolates
#: between observations, and the last bits of that arithmetic vary across
#: platforms/BLAS builds — rounding to fixed precision keeps
#: :meth:`MetricsRegistry.to_json` byte-stable everywhere.
QUANTILE_DECIMALS = 6


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    """Canonical hashable form of a label set (sorted, values stringified)."""
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _negative_increment(name: str, value: float) -> ValueError:
    return ValueError(f"counter {name!r} can only increase; got inc({value})")


class Metric:
    """Base of all metric families: a name, a kind, and labelled series."""

    kind = "metric"

    def __init__(self, name: str, description: str = ""):
        if not name:
            raise ValueError("a metric needs a non-empty name")
        self.name = name
        self.description = description

    def labelsets(self) -> list[dict[str, str]]:
        """Every label set with a recorded series, in sorted order."""
        return [dict(key) for key in sorted(self._series)]

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, object]:
        """Deterministic dict form of the whole family."""
        return {
            "type": self.kind,
            "description": self.description,
            "series": [
                {"labels": dict(key), **self._snapshot_series(key)}
                for key in sorted(self._series)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r} ({len(self._series)} series)>"


class Counter(Metric):
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[_LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (>= 0) to the series selected by ``labels``."""
        if value < 0:
            raise _negative_increment(self.name, value)
        self._inc(_label_key(labels), value)

    def _inc(self, key: _LabelKey, value: float) -> None:
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current total of one series (0 if it never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every series of the family."""
        return sum(self._series.values())

    def by_label(self, label: str) -> dict[str, float]:
        """Totals grouped by one label's values (e.g. rejects by reason)."""
        grouped: dict[str, float] = {}
        for key, value in self._series.items():
            for name, label_value in key:
                if name == label:
                    grouped[label_value] = grouped.get(label_value, 0.0) + value
        return dict(sorted(grouped.items()))

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        return {"value": self._series[key]}


class Gauge(Metric):
    """A last-written value per label set (queue depth, pool size)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[_LabelKey, float] = {}
        self._max: dict[_LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite the series value (the high-water mark is kept too)."""
        self._set(_label_key(labels), float(value))

    def _set(self, key: _LabelKey, value: float) -> None:
        self._series[key] = value
        self._max[key] = max(self._max.get(key, float("-inf")), value)

    def add(self, delta: float, **labels) -> None:
        """Adjust the series by ``delta`` (convenience for up/down tracking)."""
        self.set(self.value(**labels) + delta, **labels)

    def value(self, **labels) -> float:
        """Current value of one series (0 if never set)."""
        return self._series.get(_label_key(labels), 0.0)

    def max(self, **labels) -> float:
        """High-water mark of one series (0 if never set)."""
        key = _label_key(labels)
        return self._max.get(key, 0.0) if key in self._series else 0.0

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        return {"value": self._series[key], "max": self._max[key]}


class Histogram(Metric):
    """A full value distribution per label set.

    Observations are kept verbatim (runs are bounded and deterministic), so
    quantiles are *exact* — the same linear-interpolation arithmetic as
    ``numpy.percentile``, which the serving report's latency summaries already
    use.  No bucket-boundary approximation can drift from the report.
    """

    kind = "histogram"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: dict[_LabelKey, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation in the series selected by ``labels``."""
        self._observe(_label_key(labels), float(value))

    def _observe(self, key: _LabelKey, value: float) -> None:
        self._series.setdefault(key, []).append(value)

    def values(self, **labels) -> list[float]:
        """All observations of one series, in observation order."""
        return list(self._series.get(_label_key(labels), ()))

    def count(self, **labels) -> int:
        return len(self._series.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        return float(sum(self._series.get(_label_key(labels), ())))

    def quantile(self, q: float, **labels) -> float:
        """The ``q``-th percentile (0..100) with linear interpolation."""
        values = self._series.get(_label_key(labels))
        if not values:
            raise ValueError(
                f"histogram {self.name!r} has no observations for labels {labels!r}"
            )
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(values, q))

    def _snapshot_series(self, key: _LabelKey) -> dict[str, object]:
        values = self._series[key]
        summary: dict[str, object] = {
            "count": len(values),
            "sum": float(sum(values)),
            "min": min(values),
            "max": max(values),
            "mean": float(sum(values)) / len(values),
        }
        for q in HISTOGRAM_QUANTILES:
            summary[f"p{q:g}"] = round(float(np.percentile(values, q)), QUANTILE_DECIMALS)
        return summary


class Series:
    """One labelled series of a registry family, bound ahead of its writes.

    :meth:`MetricsRegistry.series` computes the label key once; each write
    then goes straight to the family's keyed ``_inc``/``_set``/``_observe``
    hook, so windowed families bucket it exactly as a labelled call would.
    The family is looked up on the *first write*, not at bind time: a bound
    series that never writes never registers its family, and snapshots,
    ``names()`` and alert rules see what labelled calls would have left.

    A resolved series keeps its family object, so rebind after
    :meth:`MetricsRegistry.clear` (the serving loop binds per run).
    """

    __slots__ = ("_registry", "_kind", "name", "description", "key", "_family")

    def __init__(self, registry: "MetricsRegistry", kind: str, name: str,
                 description: str, key: _LabelKey):
        self._registry = registry
        self._kind = kind
        self.name = name
        self.description = description
        self.key = key
        self._family = None

    def family(self) -> Metric:
        """The bound family, registered now if no write has registered it yet."""
        family = self._family
        if family is None:
            factory = getattr(self._registry, self._kind)
            family = self._family = factory(self.name, self.description)
        return family


class CounterSeries(Series):
    """A bound :class:`Counter` series."""

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` (>= 0), as ``Counter.inc(value, **labels)`` does."""
        if value < 0:
            raise _negative_increment(self.name, value)
        (self._family or self.family())._inc(self.key, value)


class GaugeSeries(Series):
    """A bound :class:`Gauge` series."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Overwrite the value, as ``Gauge.set(value, **labels)`` does."""
        (self._family or self.family())._set(self.key, float(value))


class HistogramSeries(Series):
    """A bound :class:`Histogram` series."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Record one observation, as ``Histogram.observe(value, **labels)`` does."""
        (self._family or self.family())._observe(self.key, float(value))


_SERIES = {"counter": CounterSeries, "gauge": GaugeSeries, "histogram": HistogramSeries}


class SeriesByValue(dict):
    """Bound series of one family, one per value of a varying label.

    ``by_device[device].observe(x)`` binds the series of ``device`` on its
    first lookup and is one dict hit afterwards — a per-value key cache for
    labels such as a device, a batch size or a close reason.
    """

    def __init__(self, registry: "MetricsRegistry", kind: str, name: str,
                 description: str = "", *, label: str):
        super().__init__()
        self._bind = partial(registry.series, kind, name, description)
        self._label = label

    def __missing__(self, value) -> Series:
        series = self[value] = self._bind(**{self._label: value})
        return series


class MetricsRegistry:
    """One namespace of metric families, the single home of a run's tallies.

    Families are created lazily and memoised by name —
    ``registry.counter("serve.requests.offered")`` returns the same
    :class:`Counter` on every call, and asking for an existing name with a
    different type raises, so two subsystems can never fight over a name.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------- factories
    def _get_or_create(self, cls: type[Metric], name: str, description: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        elif description and not metric.description:
            metric.description = description
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        """The counter family ``name`` (created on first use)."""
        return self._get_or_create(Counter, name, description)  # type: ignore[return-value]

    def gauge(self, name: str, description: str = "") -> Gauge:
        """The gauge family ``name`` (created on first use)."""
        return self._get_or_create(Gauge, name, description)  # type: ignore[return-value]

    def histogram(self, name: str, description: str = "") -> Histogram:
        """The histogram family ``name`` (created on first use)."""
        return self._get_or_create(Histogram, name, description)  # type: ignore[return-value]

    def series(self, kind: str, name: str, description: str = "", **labels) -> Series:
        """Bind the ``labels`` series of the ``kind`` family ``name``.

        ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; the handle
        has that family's verb (``inc``/``set``/``observe``).  Binding does
        not create the family — its first write does (see :class:`Series`).
        """
        cls = _SERIES.get(kind)
        if cls is None:
            raise ValueError(f"unknown metric kind {kind!r}; expected one of {sorted(_SERIES)}")
        return cls(self, kind, name, description, _label_key(labels))

    # --------------------------------------------------------------- queries
    def get(self, name: str) -> Metric | None:
        """The family registered as ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered family names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # ---------------------------------------------------------------- export
    def snapshot(self) -> dict[str, object]:
        """Deterministic nested-dict export of every family, names sorted."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: int | None = 2) -> str:
        """Byte-deterministic JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write(self, path):
        """Dump :meth:`to_json` to ``path`` (parent directories created)."""
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")
        return target

    def clear(self) -> None:
        """Drop every family (a fresh namespace)."""
        self._metrics.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<MetricsRegistry {len(self._metrics)} families>"


def quantiles_reference(values: Sequence[float], qs=HISTOGRAM_QUANTILES) -> dict[str, float]:
    """Numpy-computed reference quantiles (what snapshot arithmetic must match)."""
    return {
        f"p{q:g}": round(float(np.percentile(list(values), q)), QUANTILE_DECIMALS)
        for q in qs
    }
