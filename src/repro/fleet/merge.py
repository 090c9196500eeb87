"""Merge per-shard run artifacts into one fleet-level ``RunResult``.

The merge is the linchpin of the fleet's determinism contract: it must
be a *pure, order-insensitive* function of the shard results, because
worker processes may compute them in any interleaving. Every rule below
either merges exactly (sums of counters, histogram-bucket addition,
global top-K) or is a documented deterministic approximation:

* **operations / bytes / counts / throughput / cost** (``_SUMMED``) —
  exact sums; throughput sums because each shard is an independent
  server contributing its own ops/sec. **Per-key dicts** (``_FOLDED``:
  reads by source, per-level and per-device bytes, wear) — summed key
  by key.
* **elapsed** — max of shard clocks (shards run concurrently).
* **latency summaries** — rebuilt from the merged ``op.latency_usec``
  histograms: count/mean/max are exact, percentiles are bucket-resolution
  (<= 2x relative error with the default powers-of-two bounds). This is
  the same representation ``repro-bench report`` already reads.
* **cache hit rates** — recomputed from merged hit/miss counters (exact).
* **write amplification** — recomputed from merged byte totals (exact).
* **wear** — per-tier mean across shards (each shard wrote its own
  device image); **lifetime** — min (the fleet replaces a tier when its
  worst device dies).
* **metrics / timeline** — the dedicated merge functions in
  ``repro.obs`` (see their docstrings for exact-vs-approximate).
* **attribution** — left empty: no shard attributes per-request latency.

``tests/fleet/test_merge.py`` pins the exactness claims
against a single recorder fed the combined stream.

The merge is exposed two ways: :class:`ShardAccumulator` folds results
one at a time — the fleet router feeds it each shard artifact as the
worker pool streams them back, so decoded shards are consumed on
arrival instead of piling up behind a barrier — and
:func:`merge_run_results` wraps the accumulator for callers that
already hold the full list. Both reduce in shard order, so they produce
bit-identical artifacts.
"""

from __future__ import annotations

from repro.bench.harness import RunResult
from repro.common.stats import LatencySummary
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import merge_timelines


def _summary_from_row(row: dict | None) -> LatencySummary:
    if row is None or row["count"] == 0:
        return LatencySummary.empty()
    return LatencySummary(
        row["count"], row["mean"], row["p50"], row["p95"], row["p99"], row["max"]
    )


def _find_row(metrics: dict, name: str, **labels) -> dict | None:
    metric = metrics.get(name)
    if metric is None:
        return None
    for row in metric["series"]:
        if row["labels"] == labels:
            return row
    return None


def _op_summary(metrics: dict, op: str) -> LatencySummary:
    return _summary_from_row(_find_row(metrics, "op.latency_usec", op=op))


def _sum_rows(metrics: dict, name: str, label: str | None = None) -> float:
    """Total of a counter metric, optionally only rows matching a label value."""
    metric = metrics.get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for row in metric["series"]:
        if label is None or row["labels"].get("type") == label:
            total += row["value"]
    return total


def _hit_rate(metrics: dict, label: str | None = None) -> float:
    """Cache hit rate from the merged hit/miss counters (exact)."""
    hits = _sum_rows(metrics, "cache.hits", label)
    misses = _sum_rows(metrics, "cache.misses", label)
    return hits / (hits + misses) if hits + misses else 0.0


#: Extensive counters: the fleet value is the sum over shards.
_SUMMED = (
    "operations", "throughput_kops", "compactions", "compaction_read_bytes",
    "compaction_write_bytes", "flush_bytes", "wal_bytes", "user_write_bytes",
    "pinned_records", "pulled_up_records", "migrations", "migration_bytes",
    "storage_cost_dollars",
)
#: Per-key dicts summed key by key, keys in first-seen order; wear is
#: then divided by the shard count (a per-tier mean).
_FOLDED = (
    "reads_by_source", "per_level_write_bytes", "device_read_bytes",
    "device_write_bytes", "device_wear_cycles",
)
#: Fields with a rule of their own in :meth:`ShardAccumulator.add` or
#: :meth:`ShardAccumulator.finish` (``attribution``'s: it stays empty).
#: ``label`` is the caller's and ``fleet`` the router's, so neither is
#: merged.
_EXPLICIT = (
    "system", "layout_code", "elapsed_usec", "read_latency", "update_latency",
    "scan_latency", "read_latency_by_source", "cache_hit_rate",
    "cache_hit_rate_data", "write_amplification", "device_lifetime_years",
    "metrics", "timeline", "attribution",
)


class ShardAccumulator:
    """Fold shard :class:`RunResult` artifacts into one fleet result.

    ``add`` consumes one shard at a time; the fleet router calls it as
    each worker's artifact streams back from the pool, so the merge
    overlaps the slowest shard's simulation instead of waiting behind a
    barrier. All scalar/dict accumulators are left-to-right reductions
    in ``add`` order, so feeding shards in shard order produces a
    bit-identical artifact. Only the two blocks whose merge functions
    need the full collection (metrics registry, timeline) are deferred
    to :meth:`finish`.
    """

    def __init__(self) -> None:
        self._first: RunResult | None = None
        self._count = 0
        # An int 0 start adds exactly like 0.0 to a float field.
        self._sums = dict.fromkeys(_SUMMED, 0)
        self._folds: dict[str, dict] = {name: {} for name in _FOLDED}
        self._elapsed_usec = 0.0
        self._lifetimes: dict[str, float] = {}
        self._metrics: list[dict] = []
        self._timelines: list[dict] = []

    def __len__(self) -> int:
        return self._count

    def add(self, result: RunResult) -> None:
        """Fold one shard's result in (shards must share system/layout)."""
        first = self._first
        if first is None:
            self._first = first = result
        elif (
            result.system != first.system
            or result.layout_code != first.layout_code
        ):
            raise ConfigError(
                "fleet shards must share system and layout: "
                f"{result.system}/{result.layout_code} vs "
                f"{first.system}/{first.layout_code}"
            )
        self._count += 1
        sums = self._sums
        for name in _SUMMED:
            sums[name] += getattr(result, name)
        for name, into in self._folds.items():
            for key, value in getattr(result, name).items():
                into[key] = into.get(key, 0) + value
        if result.elapsed_usec > self._elapsed_usec:
            self._elapsed_usec = result.elapsed_usec
        for tier, years in result.device_lifetime_years.items():
            current = self._lifetimes.get(tier)
            self._lifetimes[tier] = (
                years if current is None else min(current, years)
            )
        self._metrics.append(result.metrics)
        self._timelines.append(result.timeline)

    def finish(self, *, label: str = "fleet") -> RunResult:
        """Merge the deferred blocks and build the fleet-level result."""
        first = self._first
        if first is None:
            raise ConfigError("cannot merge an empty result list")

        metrics = MetricsRegistry.merge_snapshots(self._metrics)

        # Latency populations from the merged registry histograms.
        by_source: dict[str, LatencySummary] = {}
        source_metric = metrics.get("read.latency_usec")
        if source_metric is not None:
            for row in source_metric["series"]:
                by_source[row["labels"]["source"]] = _summary_from_row(row)

        sums = self._sums
        folds = dict(self._folds)
        folds["device_wear_cycles"] = {
            tier: total / self._count
            for tier, total in folds["device_wear_cycles"].items()
        }
        user_write_bytes = sums["user_write_bytes"]
        return RunResult(
            label=label,
            system=first.system,
            layout_code=first.layout_code,
            elapsed_usec=self._elapsed_usec,
            read_latency=_op_summary(metrics, "read"),
            update_latency=_op_summary(metrics, "update"),
            scan_latency=_op_summary(metrics, "scan"),
            read_latency_by_source=by_source,
            cache_hit_rate=_hit_rate(metrics),
            cache_hit_rate_data=_hit_rate(metrics, label="data"),
            write_amplification=(
                (sums["flush_bytes"] + sums["compaction_write_bytes"] + sums["wal_bytes"])
                / user_write_bytes
                if user_write_bytes
                else 0.0
            ),
            device_lifetime_years=self._lifetimes,
            metrics=metrics,
            timeline=merge_timelines(self._timelines),
            **sums,
            **folds,
        )


def merge_run_results(
    results: list[RunResult], *, label: str = "fleet"
) -> RunResult:
    """Fold per-shard :class:`RunResult` artifacts into one fleet result."""
    accumulator = ShardAccumulator()
    for result in results:
        accumulator.add(result)
    return accumulator.finish(label=label)
