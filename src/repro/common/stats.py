"""Metric collection: latency percentiles, counters, throughput.

The harness records one latency sample per operation, split by operation
kind (read / update / insert / scan). Percentiles use the nearest-rank
method on the sorted sample vector, matching what YCSB reports.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field


def nearest_rank(ordered: list[float], pct: float) -> float:
    """Deterministic nearest-rank percentile of a sorted population.

    Uses the textbook rank ``ceil(pct/100 * n)`` (1-based, clamped to
    [1, n]). ``round()`` is *not* used: banker's rounding made small
    populations inconsistent (p25 of 10 samples landed on rank 2 instead
    of 3 because ``round(2.5) == 2``).
    """
    n = len(ordered)
    rank = min(n, max(1, math.ceil(pct / 100.0 * n)))
    return ordered[rank - 1]


@dataclass
class LatencySummary:
    """Summary statistics of one latency population (microseconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0)


class LatencyRecorder:
    """Accumulates latency samples and computes percentile summaries.

    Samples live unboxed in an ``array('d')`` — 8 bytes each instead of
    a 24-byte float object plus an 8-byte list slot — and the hot path
    (:meth:`record`) is a bare append. Sorting happens lazily at summary
    time and the sorted vector is reused until the population grows:
    samples are append-only, so ``len(sorted) != len(samples)`` is a
    complete staleness check. Repeated ``percentile()`` / ``summary()``
    calls on an unchanged recorder sort exactly once. A double round-trips
    through the array exactly, so every summary equals the one a plain
    list of the same floats gives.
    """

    def __init__(self) -> None:
        self._samples = array("d")
        self._ordered: array | None = None

    def record(self, latency_usec: float) -> None:
        """Add one sample. Negative latencies indicate a simulator bug."""
        if latency_usec < 0:
            raise ValueError(f"negative latency recorded: {latency_usec}")
        self._samples.append(latency_usec)

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's samples into this one.

        Used to combine per-phase populations (e.g. warmup + measured, or
        per-client recorders) into one summary without re-recording.
        """
        if other is self:
            raise ValueError("cannot merge a recorder into itself")
        self._samples.extend(other._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> array:
        """The samples in record order, an ``array('d')`` (not copied;
        treat as read-only)."""
        return self._samples

    def _sorted_samples(self) -> array:
        ordered = self._ordered
        if ordered is None or len(ordered) != len(self._samples):
            ordered = self._ordered = array("d", sorted(self._samples))
        return ordered

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; ``pct`` in [0, 100]."""
        if not self._samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        return nearest_rank(self._sorted_samples(), pct)

    def summary(self) -> LatencySummary:
        """Compute count/mean/p50/p95/p99/max from the lazily sorted vector."""
        if not self._samples:
            return LatencySummary.empty()
        ordered = self._sorted_samples()
        n = len(ordered)
        return LatencySummary(
            count=n,
            mean=sum(ordered) / n,
            p50=nearest_rank(ordered, 50.0),
            p95=nearest_rank(ordered, 95.0),
            p99=nearest_rank(ordered, 99.0),
            maximum=ordered[-1],
        )


@dataclass
class CounterSet:
    """A bag of named monotonically increasing counters."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be non-negative: {amount}")
        self.counts[name] = self.counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)


def throughput_kops(op_count: int, elapsed_usec: float) -> float:
    """Operations per second, in thousands, given simulated elapsed time."""
    if elapsed_usec <= 0:
        return 0.0
    return op_count / (elapsed_usec / 1_000_000.0) / 1_000.0
