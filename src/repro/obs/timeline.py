"""Time-series telemetry: the simulated-clock timeline sampler.

A whole-run :meth:`MetricsRegistry.snapshot` says *what* happened; it
cannot say *when*. Burn-in vs steady state, compaction-debt waves, and
CLOCK-tracker convergence (the paper's Fig. 6 / Fig. 9 behaviour) are
inherently temporal. :class:`TimelineSampler` subscribes to the
:class:`~repro.common.clock.SimClock` observer hook and, every
``interval_ms`` of *simulated* time, records one row of interval
**deltas** of selected registry series into a bounded ring buffer:

* ``throughput_kops`` — operations completed in the interval;
* ``read_p50_usec`` / ``read_p99_usec`` / ``update_p50_usec`` /
  ``update_p99_usec`` — interval percentiles over the latencies the
  harness recorded since the previous row (``latencies``, bucketed as
  ``op.latency_usec`` buckets them), so each point reflects only that
  interval's operations;
* ``device.read_bytes{tier=..}`` / ``device.write_bytes{tier=..}`` —
  bytes moved per tier in the interval (foreground + background);
* ``device.busy_frac{tier=..}`` — modeled device busy time over the
  interval (can exceed 1.0: background work queues faster than the
  interval drains it);
* ``cache.hit_rate`` / ``rowcache.hit_rate`` — interval hit rates;
* ``compaction.count{level=..}`` / ``compaction.write_bytes{level=..}``
  — compaction flow by source level;
* ``compaction.records{kind=pinned}`` / ``{kind=pulled_up}`` — the
  PrismDB placer's per-interval pin/pull-up rates;
* ``tracker.occupancy`` — instantaneous gauge level;
* any registered *probe* (``memtable.bytes``, ``l0.files``) — an
  instantaneous callable polled at sample time.

Rows are stamped with the current *phase* (``load`` / ``warmup`` /
``run``, set by the harness via :meth:`mark_phase`) so samples are
attributable. The ring buffer (``capacity`` rows) bounds memory: once
full, the oldest row is dropped and ``dropped`` counts it.

Everything is driven by simulated time and registry state — no
wall-clock, no randomness — so two runs with the same seed produce
bit-identical timelines (tested in ``tests/obs/test_timeline.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable

from repro.common.clock import SimClock
from repro.common.stats import LatencyRecorder
from repro.errors import ObservabilityError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    percentile_from_buckets,
)

#: Number of catch-up samples taken in a single clock move before the
#: sampler collapses the remainder into one row (a pathological jump
#: would otherwise stall the simulation emitting identical rows).
MAX_CATCHUP_SAMPLES = 64


def check_interval_ms(interval_ms: float) -> None:
    """The sampling-interval rule, checkable before any sampler exists."""
    if interval_ms <= 0:
        raise ObservabilityError(f"interval_ms must be positive: {interval_ms}")


class TimelineSampler:
    """Samples registry deltas into ring-buffered time series."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: SimClock,
        *,
        interval_ms: float = 10.0,
        capacity: int = 4096,
        probes: dict[str, Callable[[], float]] | None = None,
        latencies: dict[str, LatencyRecorder] | None = None,
    ) -> None:
        check_interval_ms(interval_ms)
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1: {capacity}")
        self.registry = registry
        self.clock = clock
        self.interval_ms = float(interval_ms)
        self.interval_usec = float(interval_ms) * 1_000.0
        self.capacity = capacity
        self.probes = dict(probes or {})
        #: Per-op latency recorders ("read", "update", "scan") the
        #: throughput and percentile series are computed from.
        self.latencies = dict(latencies or {})
        self.dropped = 0
        self._rows: deque[tuple[float, str, dict[str, float]]] = deque(maxlen=capacity)
        self._phase = ""
        self._phases: list[tuple[float, str]] = []
        self._next_sample_usec = clock.now + self.interval_usec
        # Previous-sample state for delta series.
        self._prev_scalars: dict[str, float] = {}
        self._prev_counts: dict[str, int] = {}
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "TimelineSampler":
        """Subscribe to the clock; sampling starts one interval from now."""
        if not self._attached:
            self.clock.subscribe(self._on_tick)
            self._attached = True
            self._next_sample_usec = self.clock.now + self.interval_usec
        return self

    def detach(self) -> None:
        """Unsubscribe from the clock (the recorded timeline remains)."""
        if self._attached:
            self.clock.unsubscribe(self._on_tick)
            self._attached = False

    def mark_phase(self, phase: str) -> None:
        """Stamp subsequent samples with ``phase`` (load/warmup/run/...)."""
        self._phase = phase
        self._phases.append((self.clock.now / 1_000.0, phase))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _on_tick(self, now_usec: float) -> None:
        if now_usec < self._next_sample_usec:
            return
        taken = 0
        while now_usec >= self._next_sample_usec:
            if taken >= MAX_CATCHUP_SAMPLES:
                # Collapse the remaining boundaries into the final one:
                # the registry has not changed since the jump began, so
                # the skipped rows would be identical zero-delta rows.
                behind = now_usec - self._next_sample_usec
                self._next_sample_usec += (
                    (behind // self.interval_usec) * self.interval_usec
                )
            self._take_sample(self._next_sample_usec)
            self._next_sample_usec += self.interval_usec
            taken += 1

    def _counter_delta(self, key: str, value: float) -> float:
        previous = self._prev_scalars.get(key, 0.0)
        self._prev_scalars[key] = value
        return value - previous

    def _take_sample(self, at_usec: float) -> None:
        registry = self.registry
        values: dict[str, float] = {}

        # Throughput and interval latency percentiles over the samples
        # recorded since the previous row, bucketed as Histogram.observe
        # buckets them.
        bounds = DEFAULT_LATENCY_BUCKETS
        ops_delta = 0.0
        for op, recorder in self.latencies.items():
            samples = recorder.samples
            seen = self._prev_counts.get(op, 0)
            self._prev_counts[op] = len(samples)
            ops_delta += len(samples) - seen
            if op in ("read", "update"):
                delta = [0] * (len(bounds) + 1)
                for latency in samples[seen:]:
                    delta[bisect_left(bounds, latency)] += 1
                values[f"{op}_p50_usec"] = percentile_from_buckets(bounds, delta, 50.0)
                values[f"{op}_p99_usec"] = percentile_from_buckets(bounds, delta, 99.0)
        interval_sec = self.interval_usec / 1_000_000.0
        values["throughput_kops"] = ops_delta / interval_sec / 1_000.0

        # Per-tier I/O and busy fraction.
        for tier in registry.label_values("device.busy_usec", "tier"):
            read_bytes = registry.total("device.read_bytes", tier=tier)
            write_bytes = registry.total("device.write_bytes", tier=tier)
            busy = registry.total("device.busy_usec", tier=tier)
            values[f"device.read_bytes{{tier={tier}}}"] = self._counter_delta(
                f"dr:{tier}", read_bytes
            )
            values[f"device.write_bytes{{tier={tier}}}"] = self._counter_delta(
                f"dw:{tier}", write_bytes
            )
            values[f"device.busy_frac{{tier={tier}}}"] = (
                self._counter_delta(f"db:{tier}", busy) / self.interval_usec
            )

        # Cache hit rates over the interval. The row cache only appears
        # when bound (rowcache.hits has no labels, so instrument() works).
        for metric in ("cache", "rowcache"):
            if metric == "rowcache" and registry.instrument("rowcache.hits") is None:
                continue
            hit_delta = self._counter_delta(
                f"ch:{metric}", registry.total(f"{metric}.hits")
            )
            miss_delta = self._counter_delta(
                f"cm:{metric}", registry.total(f"{metric}.misses")
            )
            lookups = hit_delta + miss_delta
            values[f"{metric}.hit_rate"] = hit_delta / lookups if lookups else 0.0

        # Compaction flow by source level.
        for level in registry.label_values("compaction.count", "level"):
            values[f"compaction.count{{level={level}}}"] = self._counter_delta(
                f"cc:{level}", registry.total("compaction.count", level=level)
            )
        for level in registry.label_values("compaction.write_bytes", "level"):
            values[f"compaction.write_bytes{{level={level}}}"] = self._counter_delta(
                f"cw:{level}", registry.total("compaction.write_bytes", level=level)
            )

        # Placer activity (PrismDB pin / pull-up rates).
        for kind in ("pinned", "pulled_up"):
            values[f"compaction.records{{kind={kind}}}"] = self._counter_delta(
                f"cr:{kind}", registry.total("compaction.records", kind=kind)
            )

        # Instantaneous levels: tracker occupancy gauge plus probes.
        if registry.instrument("tracker.occupancy") is not None:
            values["tracker.occupancy"] = registry.value("tracker.occupancy")
        for name, probe in self.probes.items():
            values[name] = float(probe())

        if len(self._rows) == self.capacity:
            self.dropped += 1
        self._rows.append((at_usec / 1_000.0, self._phase, values))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[tuple[float, str, dict[str, float]]]:
        """The sampled rows, oldest first (copied)."""
        return list(self._rows)

    def series_names(self) -> list[str]:
        names: set[str] = set()
        for _, _, values in self._rows:
            names.update(values)
        return sorted(names)

    def to_dict(self) -> dict:
        """A JSON-safe, column-oriented export of the whole timeline."""
        columns = self.series_names()
        t_ms: list[float] = []
        phases: list[str] = []
        series: dict[str, list[float]] = {name: [] for name in columns}
        for at_ms, phase, values in self._rows:
            t_ms.append(at_ms)
            phases.append(phase)
            for name in columns:
                series[name].append(values.get(name, 0.0))
        return {
            "schema": 1,
            "interval_ms": self.interval_ms,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "phases": [[at_ms, phase] for at_ms, phase in self._phases],
            "t_ms": t_ms,
            "phase": phases,
            "series": series,
        }


#: Series name predicates for :func:`merge_timelines`. Everything whose
#: name matches a *weighted* pattern is an intensive quantity (a rate or
#: a percentile) and merges as a throughput-weighted mean; every other
#: series is extensive (ops, bytes, counts, busy time, occupancy levels)
#: and merges as an element-wise sum — the property the merge tests pin.
_WEIGHTED_SUFFIXES = ("_p50_usec", "_p99_usec")
_WEIGHTED_EXACT = ("cache.hit_rate", "rowcache.hit_rate")


def _is_weighted_series(name: str) -> bool:
    return name.endswith(_WEIGHTED_SUFFIXES) or name in _WEIGHTED_EXACT


def merge_timelines(timelines: list[dict]) -> dict:
    """Merge per-shard :meth:`TimelineSampler.to_dict` exports.

    All inputs must share one ``interval_ms``; rows are aligned by
    interval index (every shard's simulated clock starts at zero, so row
    ``k`` of every shard covers the same simulated window). Extensive
    series — throughput, byte counters, compaction counts, busy time,
    probe levels — sum element-wise, which is exactly what one sampler
    observing the combined stream would have recorded. Intensive series
    (interval percentiles, cache hit rates) cannot be recovered from
    per-shard aggregates; they merge as a mean weighted by each shard's
    interval throughput, which is exact for hit rates when lookups track
    ops and a documented approximation for percentiles. Phase markers
    come from the first (longest-phased) input; ``dropped`` sums.

    The merge is a pure function of the input list, independent of any
    execution order — the fleet's worker-count invariance rests on it.
    """
    timelines = [t for t in timelines if t]
    if not timelines:
        return {}
    interval_ms = timelines[0]["interval_ms"]
    for timeline in timelines:
        if timeline["interval_ms"] != interval_ms:
            raise ObservabilityError(
                f"cannot merge timelines with differing intervals: "
                f"{timeline['interval_ms']} vs {interval_ms}"
            )
    length = max(len(t["t_ms"]) for t in timelines)
    names = sorted({name for t in timelines for name in t["series"]})
    # Tie-break equal-length inputs on their marker content, not their
    # list position: phase provenance must be order-invariant too (the
    # merge property tests reverse the input list and diff the result).
    longest = max(
        timelines,
        key=lambda t: (
            len(t["t_ms"]),
            [(float(m[0]), str(m[1])) for m in t["phases"]],
            list(t["phase"]),
        ),
    )
    # The merged grid: interval boundaries of the longest timeline.
    t_ms = list(longest["t_ms"])
    phase = list(longest["phase"])
    weights = []  # per input: per-row throughput weight (ops proxy)
    for timeline in timelines:
        tp = timeline["series"].get("throughput_kops")
        weights.append(tp if tp is not None else [1.0] * len(timeline["t_ms"]))
    series: dict[str, list[float]] = {}
    for name in names:
        weighted = _is_weighted_series(name)
        out = []
        for k in range(length):
            if weighted:
                acc = 0.0
                weight_total = 0.0
                for timeline, wvec in zip(timelines, weights):
                    values = timeline["series"].get(name)
                    if values is None or k >= len(values):
                        continue
                    w = wvec[k] if k < len(wvec) else 0.0
                    acc += values[k] * w
                    weight_total += w
                out.append(acc / weight_total if weight_total else 0.0)
            else:
                total = 0.0
                for timeline in timelines:
                    values = timeline["series"].get(name)
                    if values is not None and k < len(values):
                        total += values[k]
                out.append(total)
        series[name] = out
    return {
        "schema": 1,
        "interval_ms": interval_ms,
        "capacity": max(t["capacity"] for t in timelines),
        "dropped": sum(t["dropped"] for t in timelines),
        "phases": [list(marker) for marker in longest["phases"]],
        "t_ms": t_ms,
        "phase": phase,
        "series": series,
    }


def timeline_series(timeline: dict, name: str) -> list[float]:
    """One series' values from a :meth:`TimelineSampler.to_dict` export."""
    series = timeline.get("series", {})
    if name not in series:
        known = ", ".join(sorted(series)) or "(none)"
        raise ObservabilityError(f"unknown timeline series {name!r}; have: {known}")
    return series[name]
