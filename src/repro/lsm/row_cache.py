"""Row cache: object-granularity DRAM caching.

§3.3 of the paper analyzes the mismatch between block-granular caching
(4 KB blocks) and object sizes (tens to hundreds of bytes): a cached
block mostly holds cold neighbours of the hot object that earned it the
cache slot. RocksDB's answer to this is the *row cache* — an optional
LRU of individual key-value entries in front of the SST read path. This
module implements it so the granularity trade-off can be measured
directly (see ``benchmarks/test_ext_row_cache.py``).

A row-cache entry is invalidated by any newer write to its key; reads
served by the row cache cost one DRAM access and skip the tree walk
entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.attribution import attribute
from repro.storage.device import DRAM_SPEC


@dataclass
class RowCacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Approximate per-entry bookkeeping overhead (hash-table slot, LRU
#: links), charged against the cache budget like RocksDB does.
ENTRY_OVERHEAD_BYTES = 32


class RowCache:
    """Byte-budgeted LRU over individual key-value entries.

    Capacity 0 disables the cache entirely (every probe is a miss and
    nothing is stored), mirroring :class:`~repro.lsm.block_cache.BlockCache`.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.stats = RowCacheStats()
        # key -> (value-or-None, seqno of the version cached)
        self._entries: OrderedDict[bytes, tuple[bytes | None, int]] = OrderedDict()
        self._used_bytes = 0

    def bind_observability(self, registry) -> None:
        """Register ``rowcache.hits`` / ``rowcache.misses`` views of :attr:`stats`."""
        stats = self.stats
        registry.view("rowcache.hits", lambda: stats.hits)
        registry.view("rowcache.misses", lambda: stats.misses)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @staticmethod
    def _entry_size(key: bytes, value: bytes | None) -> int:
        return len(key) + (len(value) if value is not None else 0) + ENTRY_OVERHEAD_BYTES

    def lookup(self, key: bytes) -> tuple[bool, bytes | None, int, float]:
        """Probe for ``key``.

        Returns (hit, value, seqno, latency). ``value`` may be None on a
        hit: the cache also remembers confirmed-absent keys (a read that
        missed everywhere), which spares repeated full-tree misses.
        Hit latency is attributed to ``(rowcache, dram)``.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            value, seqno = entry
            self.stats.hits += 1
            size = self._entry_size(key, value)
            latency = DRAM_SPEC.read_time_usec(size)
            attribute("rowcache", "dram", latency)
            return True, value, seqno, latency
        self.stats.misses += 1
        return False, None, 0, 0.0

    def insert(self, key: bytes, value: bytes | None, seqno: int) -> None:
        """Remember the outcome of a completed read."""
        if self.capacity_bytes == 0:
            return
        size = self._entry_size(key, value)
        if size > self.capacity_bytes:
            return
        existing = self._entries.get(key)
        if existing is not None:
            self._used_bytes -= self._entry_size(key, existing[0])
            self._entries.move_to_end(key)
        self._entries[key] = (value, seqno)
        self._used_bytes += size
        self.stats.insertions += 1
        while self._used_bytes > self.capacity_bytes:
            evicted_key, (evicted_value, _) = self._entries.popitem(last=False)
            self._used_bytes -= self._entry_size(evicted_key, evicted_value)
            self.stats.evictions += 1

    def invalidate(self, key: bytes) -> None:
        """Drop ``key`` (a newer write supersedes the cached version)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used_bytes -= self._entry_size(key, entry[0])
            self.stats.invalidations += 1

    def clear(self) -> None:
        self._entries.clear()
        self._used_bytes = 0
