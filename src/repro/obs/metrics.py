"""The metrics registry: counters, gauges and log-bucketed histograms.

Every component registers its instruments by *name* plus a small set of
*labels* (``tier``, ``level``, ``op``, ``component``, ...), following the
``component.metric{label=value}`` naming scheme documented in
``docs/OBSERVABILITY.md``. One :class:`MetricsRegistry` lives on each
database instance; the harness snapshots it after a run and every report
(the Fig. 10 latency breakdown, the Fig. 12 I/O accounting) is derived
from that snapshot alone instead of bespoke stat plumbing.

Histograms use *fixed, log-spaced bucket boundaries* so memory stays
bounded no matter how many samples are observed — the replacement for
the unbounded per-sample lists the harness used to keep. Percentiles are
nearest-rank over the cumulative bucket counts, reported at the bucket's
upper bound (clamped to the observed maximum), which for the default
base-2 boundaries bounds the relative error by the bucket width.

An event the engine counts lives in a stats object (``DeviceStats``,
``CacheStats``, ``DBStats``, ``CompactionStats``, ...) and is not
counted again here: its series is a :class:`View` that reads the stats
field when queried, so the registry and the stats object cannot drift
apart. Only the histograms are pushed.

Two guards keep instrumentation honest:

* a metric name must always be used with one instrument type and one
  label-name set (re-registering ``device.read_bytes`` as a histogram, or
  with different label names, raises :class:`ObservabilityError`);
* each metric name may hold at most :data:`MAX_SERIES_PER_METRIC`
  distinct label combinations, so an unbounded label value (a raw key, a
  file id) fails fast instead of silently exhausting memory.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Mapping
from functools import partial
from typing import Callable, Iterator

from repro.common.stats import LatencySummary
from repro.errors import ObservabilityError

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Distinct label combinations one metric name may hold.
MAX_SERIES_PER_METRIC = 256

#: Label key: canonical, hashable form of one label combination.
LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict[str, object]) -> LabelKey:
    """Canonicalize a label dict: sorted (name, str(value)) pairs."""
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Counter:
    """A monotonically non-decreasing value (float, so usec sums fit)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self.value += amount


class Gauge:
    """A value that can move in both directions (occupancy, backlog)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class View:
    """A counter or gauge whose value is read from its source when queried."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], float]) -> None:
        self.read = read

    @property
    def value(self) -> float:
        return float(self.read())


class _CountViews(Mapping):
    """The series of ``name{labels}`` read from a live ``{key: count}``
    dict: one series per key of the dict, whose label values are the
    label functions applied to the key. Keys are only ever added."""

    def __init__(self, counts: dict, labels: dict[str, Callable]) -> None:
        self.counts = counts
        self.labels = labels
        self._keys: dict[LabelKey, object] = {}

    def _by_label(self) -> dict[LabelKey, object]:
        """Label key -> dict key, rebuilt when the dict has grown."""
        if len(self._keys) != len(self.counts):
            if len(self.counts) > MAX_SERIES_PER_METRIC:
                raise ObservabilityError(
                    f"a {sorted(self.labels)} view exceeds {MAX_SERIES_PER_METRIC} label values"
                )
            self._keys = {
                label_key({name: fn(key) for name, fn in self.labels.items()}): key
                for key in self.counts
            }
        return self._keys

    def __getitem__(self, key: LabelKey) -> View:
        return View(partial(self.counts.__getitem__, self._by_label()[key]))

    def __iter__(self) -> Iterator[LabelKey]:
        return iter(self._by_label())

    def __len__(self) -> int:
        return len(self.counts)


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced upper bounds: start, start*factor, ..."""
    if start <= 0:
        raise ValueError(f"bucket start must be positive: {start}")
    if factor <= 1.0:
        raise ValueError(f"bucket factor must be > 1: {factor}")
    if count < 1:
        raise ValueError(f"bucket count must be >= 1: {count}")
    return tuple(start * factor**i for i in range(count))


#: Default latency boundaries: powers of two from 1 us to ~67 s (2^26 us).
#: 27 buckets plus one overflow bucket cover every simulated latency the
#: device models can produce at <= 2x relative error per bucket.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(1.0, 2.0, 27)


def percentile_from_buckets(
    bounds: tuple[float, ...],
    bucket_counts: list[int],
    pct: float,
    maximum: float | None = None,
) -> float:
    """Nearest-rank percentile over an arbitrary bucket-count vector.

    The workhorse behind both :meth:`Histogram.percentile` and *delta*
    percentiles (interval percentiles computed from the difference of two
    bucket snapshots — see :mod:`repro.obs.timeline`). ``bucket_counts``
    has ``len(bounds) + 1`` entries, the last being the overflow bucket.
    ``maximum`` clamps the reported bound to the observed max when known;
    without it the overflow bucket reports the last finite bound.
    """
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile out of range: {pct}")
    count = sum(bucket_counts)
    if count == 0:
        return 0.0
    rank = min(count, max(1, math.ceil(pct / 100.0 * count)))
    cumulative = 0
    for index, bucket_count in enumerate(bucket_counts):
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(bounds):
                return maximum if maximum is not None else bounds[-1]
            bound = bounds[index]
            return min(bound, maximum) if maximum is not None else bound
    return maximum if maximum is not None else bounds[-1]  # pragma: no cover


class Histogram:
    """Fixed-bucket histogram with nearest-rank percentile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything beyond the last edge.
    Memory is O(len(bounds)) regardless of sample count.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative observation: {value}")
        # C-implemented bisect over fixed bounds; an observation lands in
        # the first bucket whose upper edge is >= value.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile estimate from the bucket counts.

        Returns the upper bound of the bucket holding the ranked sample,
        clamped to the observed max (the overflow bucket and the final
        bucket report the true maximum, so p100 is always exact).
        """
        if self.count == 0:
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"percentile out of range: {pct}")
            return 0.0
        return percentile_from_buckets(
            self.bounds, self.bucket_counts, pct, maximum=self.maximum
        )

    def summary(self) -> LatencySummary:
        """The same shape :class:`LatencyRecorder` reports, from buckets."""
        if self.count == 0:
            return LatencySummary.empty()
        return LatencySummary(
            count=self.count,
            mean=self.mean,
            p50=self.percentile(50.0),
            p95=self.percentile(95.0),
            p99=self.percentile(99.0),
            maximum=self.maximum,
        )


def _scalar(instrument) -> float:
    """A series' scalar: a histogram's observation count, else its value."""
    return instrument.count if isinstance(instrument, Histogram) else instrument.value


class MetricsRegistry:
    """Named, labeled instruments with snapshot and query support."""

    def __init__(self) -> None:
        # name -> (kind, labelnames, {label_key: instrument}); the series
        # of a count_views() metric are a read-only _CountViews mapping.
        self._metrics: dict[str, tuple[str, frozenset[str], Mapping[LabelKey, object]]] = {}

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: str, factory, labels: dict[str, object]):
        entry = self._metrics.get(name)
        if entry is None:
            if not _NAME_RE.match(name):
                raise ObservabilityError(
                    f"invalid metric name {name!r} (want dotted lower_snake)"
                )
            entry = (kind, frozenset(labels), {})
            self._metrics[name] = entry
        existing_kind, labelnames, series = entry
        if not isinstance(series, dict):
            raise ObservabilityError(f"metric {name!r} is read from a dict of counts")
        if existing_kind != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {existing_kind}, not {kind}"
            )
        if labelnames != frozenset(labels):
            raise ObservabilityError(
                f"metric {name!r} uses labels {sorted(labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            if len(series) >= MAX_SERIES_PER_METRIC:
                raise ObservabilityError(
                    f"metric {name!r} exceeds {MAX_SERIES_PER_METRIC} "
                    f"label combinations (runaway label cardinality?)"
                )
            instrument = factory()
            series[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter for one label combination."""
        return self._get_or_create(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, "gauge", Gauge, labels)

    def view(self, name: str, read: Callable[[], float], *, gauge=False, **labels) -> View:
        """A counter (or gauge) series reading ``read()``; a re-bind re-points it."""
        kind = "gauge" if gauge else "counter"
        view = self._get_or_create(name, kind, partial(View, read), labels)
        if not isinstance(view, View):
            raise ObservabilityError(f"metric {name!r} is already pushed, not a view")
        view.read = read
        return view

    def count_views(self, name: str, counts: dict, **labels: Callable) -> None:
        """Register ``name{labels}`` as one counter view per key of
        ``counts``, labelled by each label's function of the key
        (``level=str``); the metric has no series until a key exists."""
        if name in self._metrics or not _NAME_RE.match(name):
            raise ObservabilityError(f"metric {name!r} is invalid or already registered")
        self._metrics[name] = ("counter", frozenset(labels), _CountViews(counts, labels))

    def histogram(self, name: str, **labels) -> Histogram:
        """Get or create a histogram with the default latency buckets."""
        return self._get_or_create(name, "histogram", Histogram, labels)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def series(self, name: str) -> Iterator[tuple[dict[str, str], object]]:
        """Yield (labels, instrument) for every series of ``name``."""
        entry = self._metrics.get(name)
        if entry is None:
            return
        for key, instrument in entry[2].items():
            yield dict(key), instrument

    def value(self, name: str, **labels) -> float:
        """One series' scalar value; 0.0 if the series does not exist."""
        instrument = self.instrument(name, **labels)
        return 0.0 if instrument is None else float(_scalar(instrument))

    def instrument(self, name: str, **labels):
        """The live instrument for one series, or None if absent.

        Read-only access for consumers that need more than a scalar.
        """
        entry = self._metrics.get(name)
        if entry is None:
            return None
        return entry[2].get(label_key(labels))

    def label_values(self, name: str, label: str) -> list[str]:
        """Sorted distinct values ``label`` takes across ``name``'s series."""
        return list(self.totals_by(name, label))

    def totals_by(self, name: str, label: str) -> dict[str, float]:
        """Sorted ``{value: total(name, label=value)}``, in one pass over the series."""
        out: dict[str, float] = {}
        for labels, instrument in self.series(name):
            if label in labels:
                value = labels[label]
                out[value] = out.get(value, 0.0) + _scalar(instrument)
        return dict(sorted(out.items()))

    def total(self, name: str, **label_filter) -> float:
        """Sum of all series of ``name`` whose labels match the filter.

        Histogram series contribute their observation *count*. This is
        the workhorse for conservation checks, e.g.
        ``registry.total("device.write_bytes", tier="qlc-L4")``.
        """
        wanted = {k: str(v) for k, v in label_filter.items()}
        out = 0.0
        for labels, instrument in self.series(name):
            if all(labels.get(k) == v for k, v in wanted.items()):
                out += _scalar(instrument)
        return out

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict, JSON-safe snapshot of every series.

        Counters/gauges carry ``value``; histograms carry their bucket
        state plus precomputed mean/p50/p95/p99/max so report code can
        format them without re-deriving.
        """
        out: dict = {}
        for name in self.names():
            kind, _, series = self._metrics[name]
            if not series:  # a count view before its first key
                continue
            rendered = []
            for key in sorted(series):
                instrument = series[key]
                row: dict = {"labels": dict(key)}
                if isinstance(instrument, Histogram):
                    row.update(
                        count=instrument.count,
                        sum=instrument.total,
                        mean=instrument.mean,
                        p50=instrument.percentile(50.0),
                        p95=instrument.percentile(95.0),
                        p99=instrument.percentile(99.0),
                        max=instrument.maximum if instrument.count else 0.0,
                        bounds=list(instrument.bounds),
                        buckets=list(instrument.bucket_counts),
                    )
                else:
                    row["value"] = instrument.value
                rendered.append(row)
            out[name] = {"type": kind, "series": rendered}
        return out

    @staticmethod
    def merge_snapshots(snapshots: list[dict]) -> dict:
        """Merge per-instance :meth:`snapshot` exports into one snapshot.

        The fleet merge path: every shard carries a full registry
        snapshot, and the fleet-level view is their series-wise sum.
        Counters and histogram observations add exactly; gauges add too
        (a fleet gauge like ``tracker.occupancy`` is the sum of per-shard
        levels). Histogram percentiles are recomputed from the merged
        bucket vectors (mean stays exact: summed ``sum`` over summed
        ``count``), so a merged p99 equals the combined-stream p99 at
        bucket resolution. Series are processed in sorted order, so the
        result is independent of snapshot ordering apart from which
        instance contributed first — snapshots must agree on each
        metric's type (they do, by construction: one codebase registered
        them).
        """
        merged: dict = {}
        for snapshot in snapshots:
            for name in sorted(snapshot):
                metric = snapshot[name]
                target = merged.setdefault(
                    name, {"type": metric["type"], "series": []}
                )
                if target["type"] != metric["type"]:
                    raise ObservabilityError(
                        f"metric {name!r} merged as {target['type']} and "
                        f"{metric['type']}"
                    )
                by_labels = {
                    label_key(row["labels"]): row for row in target["series"]
                }
                for row in metric["series"]:
                    key = label_key(row["labels"])
                    into = by_labels.get(key)
                    if into is None:
                        copied = {k: (dict(v) if isinstance(v, dict) else
                                      list(v) if isinstance(v, list) else v)
                                  for k, v in row.items()}
                        target["series"].append(copied)
                        continue
                    if "value" in row:
                        into["value"] += row["value"]
                    else:
                        if list(into["bounds"]) != list(row["bounds"]):
                            raise ObservabilityError(
                                f"metric {name!r} merged with differing "
                                f"histogram bounds"
                            )
                        into["count"] += row["count"]
                        into["sum"] += row["sum"]
                        into["max"] = max(into["max"], row["max"])
                        into["buckets"] = [
                            a + b for a, b in zip(into["buckets"], row["buckets"])
                        ]
                        into["mean"] = (
                            into["sum"] / into["count"] if into["count"] else 0.0
                        )
                        for pct in (50.0, 95.0, 99.0):
                            into[f"p{pct:g}"] = percentile_from_buckets(
                                tuple(into["bounds"]), into["buckets"], pct,
                                maximum=into["max"] if into["count"] else None,
                            )
        # Deterministic presentation: sorted series within each metric.
        for metric in merged.values():
            metric["series"].sort(key=lambda row: label_key(row["labels"]))
        return merged
