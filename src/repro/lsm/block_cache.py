"""The DRAM block cache.

Caches whole SST blocks (data, index, and filter) under LRU, exactly the
granularity the paper analyzes: caching 4 KB blocks of ~100 B objects
means a block's cache-worthiness is set by its *most popular* residents,
which is why PrismDB's hot-cold separation raises hit rates (Table 4).

Hits are charged a DRAM access; misses fall through to the loader (which
charges device I/O) and insert the block — a data-block fetch is one
:meth:`BlockCache.data_block` call that reads the backend itself. Per-type
hit/miss counters feed the Table 4 reproduction.

Each entry carries the raw block bytes *and*, on demand, the decoded
object parsed from them (a :class:`~repro.lsm.block.DataBlock`, the
index columns, a constructed bloom filter). A cache hit therefore never
re-parses — the wall-clock cost that used to dominate the Python read
path — while the *simulated* accounting is untouched: capacity, LRU
order, eviction, and the charged DRAM latency are all still computed
from the raw byte size alone, so simulated results are bit-identical to
the bytes-only cache.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from functools import partial
from typing import Callable, Iterable, TypeVar

from repro.obs.attribution import attribute
from repro.storage.backend import SimFile, StorageBackend
from repro.storage.device import DRAM_SPEC

T = TypeVar("T")


class BlockType(enum.Enum):
    DATA = "data"
    INDEX = "index"
    FILTER = "filter"


class _Entry:
    """One cached block: raw bytes plus the lazily parsed decoded form."""

    __slots__ = ("data", "decoded", "hit_latency")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.decoded: object | None = None
        #: What every hit on this entry charges: one DRAM access for the
        #: raw size — a pure function of it, so computed once per insert.
        self.hit_latency = DRAM_SPEC.read_time_usec(len(data))


class _Tally:
    """Hit/miss counts of one block type.

    The cache binds one tally per type up front, so counting a lookup
    is one attribute bump — no ``BlockType``-keyed dict (``Enum``
    hashing is a Python-level call) on the probe path.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def hit(self) -> None:
        self.hits += 1

    def miss(self) -> None:
        self.misses += 1


class CacheStats:
    """Hit/miss accounting, overall and per block type."""

    def __init__(self) -> None:
        self.tallies: dict[BlockType, _Tally] = {bt: _Tally() for bt in BlockType}
        self.insertions = 0
        self.evictions = 0

    @property
    def hits(self) -> dict[BlockType, int]:
        """Hits per block type (types never hit are absent)."""
        return {bt: tally.hits for bt, tally in self.tallies.items() if tally.hits}

    @property
    def misses(self) -> dict[BlockType, int]:
        """Misses per block type (types never missed are absent)."""
        return {bt: tally.misses for bt, tally in self.tallies.items() if tally.misses}

    def hit_rate(self, block_type: BlockType | None = None) -> float:
        """Hit rate for one block type, or across all types when None."""
        tallies = (
            self.tallies.values() if block_type is None else [self.tallies[block_type]]
        )
        hits = sum(tally.hits for tally in tallies)
        total = hits + sum(tally.misses for tally in tallies)
        return hits / total if total else 0.0


class BlockCache:
    """Byte-capacity-bounded LRU cache over (file_id, offset) block keys.

    A capacity of zero disables caching entirely (the Fig. 13 "DRAM
    caching disabled" configuration): every lookup is a miss and nothing
    is retained.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[int, int], _Entry] = OrderedDict()
        self._used_bytes = 0
        tallies = self._tallies = self.stats.tallies
        #: Pre-bound counters for the fetch paths: a table-resident
        #: filter / index access, and a data-block hit or miss.
        self.filter_resident_hit = tallies[BlockType.FILTER].hit
        self.index_resident_hit = tallies[BlockType.INDEX].hit
        self._data_hit = tallies[BlockType.DATA].hit
        self._data_miss = tallies[BlockType.DATA].miss

    def bind_observability(self, registry) -> None:
        """Register ``cache.hits`` / ``cache.misses`` views of the tallies."""
        for bt, tally in self._tallies.items():
            registry.view("cache.hits", partial(getattr, tally, "hits"), type=bt.value)
            registry.view("cache.misses", partial(getattr, tally, "misses"), type=bt.value)

    def record_resident_hit(self, block_type: BlockType) -> None:
        """Count a hit served from table-resident memory (filter/index).

        SSTables keep their filter and index blocks resident after first
        load (RocksDB's table cache); those accesses are DRAM hits and
        are accounted here so "hits + misses == every block lookup"
        holds as a conservation invariant.
        """
        self._tallies[block_type].hit()

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_load(
        self,
        file_id: int,
        offset: int,
        block_type: BlockType,
        loader: Callable[[], tuple[bytes, float]],
    ) -> tuple[bytes, float]:
        """Return (block bytes, simulated latency).

        On a hit the latency is one DRAM access for the block size,
        attributed to ``(block type, dram)``; on a miss it is whatever
        the loader charges (device I/O, which names its own component)
        and the block is inserted.
        """
        key = (file_id, offset)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._tallies[block_type].hit()
            latency = entry.hit_latency
            attribute(block_type.value, "dram", latency)
            return entry.data, latency
        self._tallies[block_type].miss()
        data, latency = loader()
        self._insert(key, data)
        return data, latency

    def get_or_load_decoded(
        self,
        file_id: int,
        offset: int,
        block_type: BlockType,
        loader: Callable[[], tuple[bytes, float]],
        decoder: Callable[[bytes], T],
    ) -> tuple[T, float]:
        """Return (decoded block object, simulated latency).

        Identical accounting to :meth:`get_or_load` — hits charge one
        DRAM access for the *raw* block size, misses charge the loader —
        but the parsed object is memoized on the entry, so repeated hits
        pay zero re-parsing wall-clock. The decoded form rides along with
        the raw bytes: evicting or invalidating the entry drops both.
        """
        key = (file_id, offset)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._tallies[block_type].hit()
            decoded = entry.decoded
            if decoded is None:
                decoded = entry.decoded = decoder(entry.data)
            latency = entry.hit_latency
            attribute(block_type.value, "dram", latency)
            return decoded, latency
        self._tallies[block_type].miss()
        data, latency = loader()
        decoded = decoder(data)
        inserted = self._insert(key, data)
        if inserted is not None:
            inserted.decoded = decoded
        return decoded, latency

    def data_block(
        self,
        backend: StorageBackend,
        file: SimFile,
        offset: int,
        length: int,
        decoder: Callable[[bytes, int, int], T],
    ) -> tuple[T, float]:
        """(decoded data block, simulated latency): a fetch in one probe.

        A ``BlockType.DATA`` lookup with :meth:`get_or_load_decoded`'s
        accounting and no loader: a miss charges a foreground
        ``backend.read`` of the ``data`` component itself.
        ``decoder(file.data, offset, length)`` windows the file's own
        bytes, so no block is ever copied.
        """
        key = (file.file_id, offset)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._data_hit()
            decoded = entry.decoded
            if decoded is None:
                decoded = entry.decoded = decoder(file.data, offset, length)
            latency = entry.hit_latency
            attribute("data", "dram", latency)
            return decoded, latency
        self._data_miss()
        data, latency = backend.read(file, offset, length, component="data")
        decoded = decoder(file.data, offset, length)
        inserted = self._insert(key, data)
        if inserted is not None:
            inserted.decoded = decoded
        return decoded, latency

    def _insert(self, key: tuple[int, int], data: bytes) -> _Entry | None:
        if self.capacity_bytes == 0 or len(data) > self.capacity_bytes:
            return None
        if key in self._entries:
            self._used_bytes -= len(self._entries[key].data)
            self._entries.move_to_end(key)
        entry = _Entry(data)
        self._entries[key] = entry
        self._used_bytes += len(data)
        self.stats.insertions += 1
        while self._used_bytes > self.capacity_bytes:
            evicted = self._entries.popitem(last=False)[1]
            self._used_bytes -= len(evicted.data)
            self.stats.evictions += 1
            if evicted is entry:
                return None
        return entry

    def invalidate_file(self, file_id: int, offsets: Iterable[int]) -> int:
        """Drop a deleted file's blocks at ``offsets`` — its filter, index
        and data blocks (``SSTable.block_offsets``); returns count removed."""
        removed = 0
        for offset in offsets:
            entry = self._entries.pop((file_id, offset), None)
            if entry is not None:
                self._used_bytes -= len(entry.data)
                removed += 1
        return removed

    def check_invariants(self, live_file_ids: Iterable[int]) -> None:
        """Every cached block names a live file; ``used_bytes`` adds up."""
        stale = {file_id for file_id, _ in self._entries}.difference(live_file_ids)
        if stale:
            raise AssertionError(f"block cache holds blocks of dead files {sorted(stale)}")
        held = sum(len(entry.data) for entry in self._entries.values())
        if held != self._used_bytes:
            raise AssertionError(f"block cache used_bytes {self._used_bytes} != {held} held")

    def clear(self) -> None:
        self._entries.clear()
        self._used_bytes = 0
