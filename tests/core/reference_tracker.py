"""A ``(clock, tag)`` tuple per key: the tracker's unpacked reference.

``TupleTracker`` is :class:`~repro.core.tracker.ClockTracker` with each
entry held as a ``(clock_value, version_tag)`` tuple instead of one
packed int. Ring, hand, eviction budget and mapper events are the
engine's own, so driven by the same reads the two must agree on every
CLOCK value, distribution, stat and eviction
(``tests/core/test_tracker.py::TestPackedEntries``).
"""

from repro.core.tracker import UNTRACKED, ClockTracker


class TupleTracker(ClockTracker):
    def on_read(self, user_key, version):
        tag = self._version_tag(version)
        entry = self._entries.get(user_key)
        if entry is None:
            self._entries[user_key] = (1, tag)
            self._ring.append(user_key)
            self._mapper.on_insert(1)
            self.stats.inserts += 1
            return
        clock, old_tag = entry
        if old_tag == tag:
            self.stats.version_hits += 1
            if clock != self.max_clock:
                self._mapper.on_change(clock, self.max_clock)
            self._entries[user_key] = (self.max_clock, tag)
        else:
            self.stats.version_mismatches += 1
            if clock != 1:
                self._mapper.on_change(clock, 1)
            self._entries[user_key] = (1, tag)

    def run_evictions(self, max_steps=None):
        if len(self._entries) <= self.capacity:
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
            if entry is None:
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
            else:
                self._entries[key] = (clock - 1, tag)
                self._mapper.on_change(clock, clock - 1)
                self.stats.decrements += 1
                self._hand += 1
        return evicted

    def clock_value(self, user_key):
        entry = self._entries.get(user_key)
        return UNTRACKED if entry is None else entry[0]

    def clock_values(self, user_keys):
        return [self.clock_value(key) for key in user_keys]

    def snapshot_distribution(self):
        histogram = {}
        for clock, _ in self._entries.values():
            histogram[clock] = histogram.get(clock, 0) + 1
        return histogram
