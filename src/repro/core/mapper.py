"""The mapper: CLOCK-value distribution and the pinning threshold (§4.2).

The mapper maintains an array of counters — how many tracked keys
currently hold each CLOCK value — updated incrementally by the tracker on
every insert, promotion, decrement and eviction. From that distribution
it converts the operator's *pinning threshold* (a fraction of tracked
keys to pin, default 10 %) into a per-CLOCK-value pin probability:

* CLOCK values are consumed from the highest rank down;
* values whose cumulative share fits under the threshold pin always;
* the value straddling the threshold pins probabilistically (the paper's
  coin flip), with weight sized so the expected pinned fraction equals
  the threshold exactly;
* everything below — including untracked keys — compacts down.
"""

from __future__ import annotations

from repro.common.rng import fnv1a_64
from repro.errors import ConfigError


class ClockDistributionMapper:
    """Tracks the CLOCK histogram and answers pin/no-pin queries."""

    def __init__(self, max_clock: int = 3) -> None:
        if max_clock < 1:
            raise ConfigError(f"max_clock must be >= 1: {max_clock}")
        self.max_clock = max_clock
        self._counts = [0] * (max_clock + 1)

    # ------------------------------------------------------------------
    # Distribution maintenance (driven by the tracker)
    # ------------------------------------------------------------------
    def _check(self, clock: int) -> None:
        if not 0 <= clock <= self.max_clock:
            raise ValueError(f"clock value out of range: {clock}")

    def on_insert(self, clock: int) -> None:
        self._check(clock)
        self._counts[clock] += 1

    def on_evict(self, clock: int) -> None:
        self._check(clock)
        if self._counts[clock] == 0:
            raise ValueError(f"evicting from empty bucket {clock}")
        self._counts[clock] -= 1

    def on_change(self, old_clock: int, new_clock: int) -> None:
        self.on_evict(old_clock)
        self.on_insert(new_clock)

    @property
    def total_tracked(self) -> int:
        return sum(self._counts)

    def counts(self) -> list[int]:
        """Histogram indexed by CLOCK value (a copy)."""
        return list(self._counts)

    def fractions(self) -> list[float]:
        """Normalized histogram; all zeros when nothing is tracked."""
        total = self.total_tracked
        if total == 0:
            return [0.0] * (self.max_clock + 1)
        return [count / total for count in self._counts]

    # ------------------------------------------------------------------
    # Pinning threshold algorithm (§4.2)
    # ------------------------------------------------------------------
    def pin_probability(self, clock: int, threshold: float) -> float:
        """Probability that a key with ``clock`` should be pinned.

        ``threshold`` is the desired pinned fraction of *tracked* keys.
        Untracked keys (clock < 0) never pin.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold out of range: {threshold}")
        if clock < 0:
            return 0.0
        self._check(clock)
        total = self.total_tracked
        if total == 0 or threshold == 0.0:
            return 0.0
        cumulative_above = 0.0
        for value in range(self.max_clock, -1, -1):
            fraction = self._counts[value] / total
            if value == clock:
                if cumulative_above >= threshold:
                    return 0.0
                if fraction == 0.0:
                    return 0.0
                if cumulative_above + fraction <= threshold:
                    return 1.0
                return (threshold - cumulative_above) / fraction
            cumulative_above += fraction
        raise AssertionError("unreachable")  # pragma: no cover

    def should_pin_key(self, user_key: bytes, clock: int, threshold: float) -> bool:
        """The coin flip, sampled by key hash.

        The paper samples the threshold-straddling CLOCK class randomly;
        an independent coin per *encounter* would make the pinned set
        churn (a key pinned in one compaction gets dropped in the next,
        bouncing between tiers). Hashing the key against the probability
        keeps the expected pinned fraction identical while making the
        sample *consistent*: the same keys stay pinned until the CLOCK
        distribution itself shifts.
        """
        probability = self.pin_probability(clock, threshold)
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return (fnv1a_64(user_key) & 0xFFFFFFFF) / 2**32 < probability
