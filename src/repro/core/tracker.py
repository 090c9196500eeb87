"""The tracker: lightweight CLOCK-based popularity tracking (§4.1, §5).

The tracker maps recently-read keys to a multi-bit CLOCK value. Faithful
to the paper's implementation:

* Each tracked key stores one byte: the CLOCK value in the top bits and a
  6-bit hash of the key's *version* in the bottom bits. A read whose
  version tag matches bumps the CLOCK to its maximum; a mismatched
  version is treated as a brand-new key (CLOCK = 1), so stale popularity
  does not survive updates.
* New keys are inserted with CLOCK = 1, not the maximum — the paper notes
  that starting at 3 would let one-hit wonders linger through three full
  decrement sweeps.
* Eviction is deferred off the read path: a CLOCK hand sweeps the table
  in the "background" (here: an explicitly budgeted
  :meth:`ClockTracker.run_evictions` call), decrementing values and
  evicting zeros, and reports every change to the mapper so the CLOCK
  value distribution stays current.

The hand is implemented as a lazily-compacted ring of keys, which mirrors
the paper's approximate concurrent iteration: keys may be visited
slightly out of insertion order after churn, which — as the paper argues
— does not affect behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import _FNV_OFFSET, _FNV_PRIME
from repro.core.mapper import ClockDistributionMapper
from repro.errors import ConfigError

#: CLOCK value for keys the tracker does not know (§4.3).
UNTRACKED = -1

# The version tag is the low 6 bits of FNV-1a over the version's 8
# little-endian bytes. XOR and multiplication mod 2^64 both keep low
# bits independent of high ones, so those 6 bits evolve as a 64-state
# machine: _TAG_STEP[(state << 8) | byte] is the next state (16 KiB).
# _TAG_ZERO4[state] feeds four zero bytes at once — the high half of
# every version below 2^32.
_TAG_START = (_FNV_OFFSET & 0x3F) << 8
_TAG_STEP = bytes(
    ((state ^ byte) * _FNV_PRIME) & 0x3F for state in range(64) for byte in range(256)
)
_TAG_ZERO4 = bytes(
    _TAG_STEP[_TAG_STEP[_TAG_STEP[_TAG_STEP[state << 8] << 8] << 8] << 8] for state in range(64)
)


@dataclass
class TrackerStats:
    """Counters describing tracker activity."""

    inserts: int = 0
    version_hits: int = 0
    version_mismatches: int = 0
    evictions: int = 0
    decrements: int = 0
    hand_steps: int = 0


class ClockTracker:
    """Multi-bit CLOCK over the most recently read keys."""

    def __init__(
        self,
        capacity: int,
        mapper: ClockDistributionMapper,
        *,
        clock_bits: int = 2,
        eviction_batch: int = 8,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(f"tracker capacity must be positive: {capacity}")
        if not 1 <= clock_bits <= 8:
            raise ConfigError(f"clock_bits out of range: {clock_bits}")
        if eviction_batch < 1:
            raise ConfigError(f"eviction_batch must be >= 1: {eviction_batch}")
        self.capacity = capacity
        self.max_clock = (1 << clock_bits) - 1
        self._mapper = mapper
        self._eviction_batch = eviction_batch
        # key -> (clock_value, version_tag)
        self._entries: dict[bytes, tuple[int, int]] = {}
        # CLOCK ring with lazy deletion: evicted keys linger until the
        # hand passes them.
        self._ring: list[bytes] = []
        self._hand = 0
        self.stats = TrackerStats()
        self._obs: dict[str, object] | None = None
        self._obs_occupancy = None

    def bind_observability(self, registry) -> None:
        """Mirror tracker activity into ``registry`` (tracker.* series).

        Registers ``tracker.events{kind=...}`` counters for inserts,
        version hits/mismatches, evictions, decrements, and hand steps,
        plus a ``tracker.occupancy`` gauge. Counters start at zero at
        bind time; :class:`TrackerStats` remains the tracker-lifetime
        record.
        """
        self._obs = {
            kind: registry.counter("tracker.events", kind=kind)
            for kind in (
                "insert",
                "version_hit",
                "version_mismatch",
                "eviction",
                "decrement",
                "hand_step",
            )
        }
        self._obs_occupancy = registry.gauge("tracker.occupancy")
        self._obs_occupancy.set(len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """Pinning only starts once the tracker has filled up (§4.2)."""
        return len(self._entries) >= self.capacity

    @staticmethod
    def _version_tag(version: int, step: bytes = _TAG_STEP, zero4: bytes = _TAG_ZERO4) -> int:
        """The bottom 6 bits of the version hash (§5), computed exactly:
        ``fnv1a_64(version.to_bytes(8, "little")) & 0x3F``, nothing kept."""
        state = step[_TAG_START | version & 0xFF]
        state = step[state << 8 | version >> 8 & 0xFF]
        state = step[state << 8 | version >> 16 & 0xFF]
        state = step[state << 8 | version >> 24 & 0xFF]
        if version < 0x100000000:
            return zero4[state]
        state = step[state << 8 | version >> 32 & 0xFF]
        state = step[state << 8 | version >> 40 & 0xFF]
        state = step[state << 8 | version >> 48 & 0xFF]
        return step[state << 8 | version >> 56]

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def on_read(self, user_key: bytes, version: int) -> None:
        """Record a read of ``user_key`` at ``version`` (a seqno)."""
        tag = self._version_tag(version)
        entry = self._entries.get(user_key)
        if entry is None:
            self._entries[user_key] = (1, tag)
            self._ring.append(user_key)
            self._mapper.on_insert(1)
            self.stats.inserts += 1
            if self._obs is not None:
                self._obs["insert"].inc()
                self._obs_occupancy.set(len(self._entries))
            return
        clock, old_tag = entry
        if old_tag == tag:
            # Same version read again: promote to maximum popularity.
            self.stats.version_hits += 1
            if self._obs is not None:
                self._obs["version_hit"].inc()
            if clock != self.max_clock:
                self._mapper.on_change(clock, self.max_clock)
            self._entries[user_key] = (self.max_clock, tag)
        else:
            # The key was updated since we last saw it: treat as new.
            self.stats.version_mismatches += 1
            if self._obs is not None:
                self._obs["version_mismatch"].inc()
            if clock != 1:
                self._mapper.on_change(clock, 1)
            self._entries[user_key] = (1, tag)

    # ------------------------------------------------------------------
    # Background eviction (the CLOCK hand)
    # ------------------------------------------------------------------
    def run_evictions(self, max_steps: int | None = None) -> int:
        """Advance the CLOCK hand until occupancy fits; returns evictions.

        Each overflowing entry requires one or more hand steps; the
        optional ``max_steps`` bounds work per call (the "background
        thread" budget). Without it the hand runs until occupancy is
        back at capacity.
        """
        if len(self._entries) <= self.capacity:
            # Nothing overflows; the hand would not move. Skip straight
            # to the occupancy gauge the full path ends with.
            if self._obs is not None:
                self._obs_occupancy.set(len(self._entries))
            return 0
        budget = max_steps if max_steps is not None else self._eviction_batch * max(
            1, len(self._entries) - self.capacity
        ) * (self.max_clock + 2)
        evicted = 0
        while len(self._entries) > self.capacity and budget > 0:
            budget -= 1
            if not self._ring:
                break
            if self._hand >= len(self._ring):
                self._hand = 0
                self._compact_ring()
                if not self._ring:
                    break
            key = self._ring[self._hand]
            entry = self._entries.get(key)
            self.stats.hand_steps += 1
            if self._obs is not None:
                self._obs["hand_step"].inc()
            if entry is None:
                # Lazy-deleted slot; drop it in place.
                self._ring[self._hand] = self._ring[-1]
                self._ring.pop()
                continue
            clock, tag = entry
            if clock == 0:
                del self._entries[key]
                self._ring[self._hand] = self._ring[-1]
                self._ring.pop()
                self._mapper.on_evict(0)
                self.stats.evictions += 1
                evicted += 1
                if self._obs is not None:
                    self._obs["eviction"].inc()
            else:
                self._entries[key] = (clock - 1, tag)
                self._mapper.on_change(clock, clock - 1)
                self.stats.decrements += 1
                if self._obs is not None:
                    self._obs["decrement"].inc()
                self._hand += 1
        if self._obs is not None:
            self._obs_occupancy.set(len(self._entries))
        return evicted

    def _compact_ring(self) -> None:
        """Drop lazily-deleted slots so the ring does not grow unbounded."""
        if len(self._ring) > 2 * max(1, len(self._entries)):
            self._ring = [key for key in self._ring if key in self._entries]
            self._hand = 0

    # ------------------------------------------------------------------
    # Queries (the placer's view)
    # ------------------------------------------------------------------
    def clock_value(self, user_key: bytes) -> int:
        """The key's CLOCK value, or :data:`UNTRACKED` (-1) if absent."""
        entry = self._entries.get(user_key)
        return UNTRACKED if entry is None else entry[0]

    def clock_values(self, user_keys: list[bytes]) -> list[int]:
        """:meth:`clock_value` of every key, in order, in one call.

        An output file's Σclockⁿ score reads its whole key list at once.
        """
        return [
            UNTRACKED if entry is None else entry[0]
            for entry in map(self._entries.get, user_keys)
        ]

    def contains(self, user_key: bytes) -> bool:
        return user_key in self._entries

    def snapshot_distribution(self) -> dict[int, int]:
        """Ground-truth CLOCK histogram (tests compare mapper vs. this)."""
        histogram: dict[int, int] = {}
        for clock, _ in self._entries.values():
            histogram[clock] = histogram.get(clock, 0) + 1
        return histogram
