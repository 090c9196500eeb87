"""Sorted String Tables.

An SSTable is one immutable on-"disk" file: a run of 4 KB data blocks in
internal-key order, followed by a bloom-filter block and an index block.
The read path is the one the paper describes for RocksDB: consult the
filter (skip the file if definitely absent), binary-search the index for
the data block, read the block, binary-search inside it. Every block
access flows through the shared :class:`~repro.lsm.block_cache.BlockCache`
so DRAM hits and device misses are charged faithfully.

Each table also carries the *popularity score* PrismDB assigns at build
time (Σ clockⁿ over its entries, §4.3), used by the read-aware compaction
picker.
"""

from __future__ import annotations

import bisect
import struct
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.common.rng import fnv1a_64
from repro.errors import CorruptionError
from repro.lsm.block import (
    EMPTY_BLOCK_BYTES,
    DataBlock,
    DataBlockBuilder,
    encode_block,
    extend_records_from,
    extend_spans_from,
    record_costs,
)
from repro.lsm.block_cache import BlockCache, BlockType
from repro.lsm.bloom import BloomFilter, key_hashes
from repro.lsm.record import (
    MAX_SEQNO,
    RECORD_HEADER_SIZE,
    Record,
    ValueKind,
    unpack_record_header,
)
from repro.storage.backend import SimFile, StorageBackend
from repro.storage.device import DRAM_SPEC
from repro.storage.tier import StorageTier

_INDEX_COUNT = struct.Struct("<I")
_INDEX_ENTRY = struct.Struct("<HQI")  # key_len, offset, length

#: Fixed part of the footer: data_len, filter_off, filter_len,
#: index_off, index_len, entry_count, tombstones, max_seqno,
#: popularity score, created_at.
_FOOTER_FIXED = struct.Struct("<QQIQIIIQdd")
#: Footer tail, at the very end of the file: smallest_len, largest_len,
#: magic.
_FOOTER_TAIL = struct.Struct("<HHI")
_FOOTER_MAGIC = 0x5052534D  # "PRSM"

#: Score assigned to keys absent from the tracker (§4.3).
UNTRACKED_CLOCK_VALUE = -1


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """Points at one data block; ``last_key`` is the block's final user key."""

    last_key: bytes
    offset: int
    length: int


def encode_index(entries: list[IndexEntry]) -> bytes:
    parts = [_INDEX_COUNT.pack(len(entries))]
    for entry in entries:
        parts.append(_INDEX_ENTRY.pack(len(entry.last_key), entry.offset, entry.length))
        parts.append(entry.last_key)
    return b"".join(parts)


def decode_index(buf: bytes | memoryview) -> list[IndexEntry]:
    if len(buf) < _INDEX_COUNT.size:
        raise CorruptionError("truncated index block")
    (count,) = _INDEX_COUNT.unpack_from(buf, 0)
    entries: list[IndexEntry] = []
    pos = _INDEX_COUNT.size
    is_view = type(buf) is not bytes
    for _ in range(count):
        if pos + _INDEX_ENTRY.size > len(buf):
            raise CorruptionError("truncated index entry")
        key_len, offset, length = _INDEX_ENTRY.unpack_from(buf, pos)
        pos += _INDEX_ENTRY.size
        last_key = buf[pos : pos + key_len]
        if len(last_key) != key_len:
            raise CorruptionError("truncated index key")
        pos += key_len
        # Index keys feed bisect comparisons, which memoryview slices do
        # not support; keep them as real bytes.
        entries.append(IndexEntry(bytes(last_key) if is_view else last_key, offset, length))
    return entries


class SSTable:
    """Handle to one immutable table: metadata plus the read path.

    ``size_bytes`` and the resident key-hash column are captured when
    the handle is made: a failure-injection swap of ``file.data``
    changes neither a live table's accounted size nor its hashes.
    """

    __slots__ = (
        "_backend", "file", "size_bytes", "max_seqno", "smallest_key", "largest_key",
        "entry_count", "tombstone_count", "data_length", "filter_offset", "filter_length",
        "index_offset", "index_length", "popularity_score", "created_at_usec", "_bloom",
        "_key_hashes", "_index", "_index_keys", "_bloom_hit_latency", "_index_hit_latency",
    )

    def __init__(
        self,
        backend: StorageBackend,
        file: SimFile,
        *,
        smallest_key: bytes,
        largest_key: bytes,
        entry_count: int,
        tombstone_count: int,
        data_length: int,
        filter_offset: int,
        filter_length: int,
        index_offset: int,
        index_length: int,
        popularity_score: float,
        created_at_usec: float,
        max_seqno: int = 0,
    ) -> None:
        self._backend = backend
        self.file = file
        self.size_bytes = file.size  # level accounting reads it constantly
        self.max_seqno = max_seqno
        self.smallest_key = smallest_key
        self.largest_key = largest_key
        self.entry_count = entry_count
        self.tombstone_count = tombstone_count
        self.data_length = data_length
        self.filter_offset = filter_offset
        self.filter_length = filter_length
        self.index_offset = index_offset
        self.index_length = index_length
        self.popularity_score = popularity_score
        self.created_at_usec = created_at_usec
        self._bloom: BloomFilter | None = None
        #: Base hash of every key, in file order: memory only, so the
        #: next compaction's filters need no hashing.
        self._key_hashes: array | None = None
        self._index: list[IndexEntry] | None = None
        self._index_keys: list[bytes] | None = None
        # Resident filter/index hits charge one DRAM access for a fixed
        # block length; the latency is a pure function of that length,
        # so it is computed once per table instead of once per probe.
        self._bloom_hit_latency = DRAM_SPEC.read_time_usec(filter_length)
        self._index_hit_latency = DRAM_SPEC.read_time_usec(index_length)

    @property
    def file_id(self) -> int:
        return self.file.file_id

    @property
    def tier(self) -> StorageTier:
        return self.file.tier

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """True if [smallest, largest] intersects [lo, hi]."""
        return not (self.largest_key < lo or hi < self.smallest_key)

    # ------------------------------------------------------------------
    # Block fetch helpers (cache-mediated, latency-charged)
    # ------------------------------------------------------------------
    def _load_bloom_filter(self, cache: BlockCache, *, foreground: bool = True, ctx=None) -> tuple[BloomFilter, float]:
        # Filter blocks behave like RocksDB's table cache: loaded from
        # the device on first access, then resident in table memory for
        # the file's lifetime (get() serves the resident case itself).
        def loader() -> tuple[bytes, float]:
            return self._backend.read(
                self.file, self.filter_offset, self.filter_length,
                foreground=foreground, ctx=ctx,
            )

        bloom, latency = cache.get_or_load_decoded(
            self.file_id, self.filter_offset, BlockType.FILTER, loader,
            BloomFilter.decode, ctx,
        )
        self._bloom = bloom
        return bloom, latency

    def _index_entries(self, cache: BlockCache, *, foreground: bool = True, ctx=None) -> tuple[list[IndexEntry], float]:
        # Index blocks live in the table cache as well (see above).
        if self._index is not None:
            cache.record_resident_hit(BlockType.INDEX)
            latency = self._index_hit_latency
            if ctx is not None:
                ctx.add("index", "dram", latency)
            return self._index, latency

        def loader() -> tuple[bytes, float]:
            return self._backend.read(
                self.file, self.index_offset, self.index_length,
                foreground=foreground, ctx=ctx,
            )

        entries, latency = cache.get_or_load_decoded(
            self.file_id, self.index_offset, BlockType.INDEX, loader,
            decode_index, ctx,
        )
        self._index = entries
        self._index_keys = [entry.last_key for entry in entries]
        return entries, latency

    def _data_block(self, entry: IndexEntry, cache: BlockCache, *, foreground: bool = True, ctx=None) -> tuple[DataBlock, float]:
        # A cached block needs no loader: probe first, build the
        # closure only on a miss.
        cached = cache.data_block_hit(self.file.file_id, entry.offset, DataBlock, ctx)
        if cached is not None:
            return cached

        def loader() -> tuple[bytes, float]:
            return self._backend.read(
                self.file, entry.offset, entry.length,
                foreground=foreground, ctx=ctx,
            )

        return cache.get_or_load_decoded(
            self.file_id, entry.offset, BlockType.DATA, loader, DataBlock, ctx
        )

    # ------------------------------------------------------------------
    # Point lookup
    # ------------------------------------------------------------------
    def get(self, user_key: bytes, cache: BlockCache, key_hash: int | None = None, *, foreground: bool = True, ctx=None) -> tuple[Record | None, float, bool]:
        """Look up ``user_key``.

        Returns (record-or-None, simulated latency, filtered) where
        ``filtered`` is True when the bloom filter short-circuited the
        lookup without touching index or data blocks. ``key_hash`` is
        ``fnv1a_64(user_key)`` when the caller has it (the read lane
        hashes once per lookup, not once per table).

        A probe of a warm table (resident filter and index, cached data
        block) costs bloom test, index bisect, one cache lookup and the
        block search — the resident branches below count their hits
        through the cache's pre-bound counters instead of entering the
        fetch helpers.
        """
        bloom = self._bloom
        if bloom is not None:
            cache.filter_resident_hit()
            latency = self._bloom_hit_latency
            if ctx is not None:
                ctx.add("filter", "dram", latency)
        else:
            bloom, latency = self._load_bloom_filter(cache, foreground=foreground, ctx=ctx)
        may_contain = bloom.may_contain(user_key, key_hash)
        if ctx is not None:
            ctx.note_probe(may_contain, n_probes=bloom.n_probes)
        if not may_contain:
            return None, latency, True
        index = self._index
        if index is not None:
            cache.index_resident_hit()
            latency += self._index_hit_latency
            if ctx is not None:
                ctx.add("index", "dram", self._index_hit_latency)
        else:
            index, index_latency = self._index_entries(cache, foreground=foreground, ctx=ctx)
            latency += index_latency
        assert self._index_keys is not None
        pos = bisect.bisect_left(self._index_keys, user_key)
        if pos >= len(index):
            return None, latency, False
        block, block_latency = self._data_block(index[pos], cache, foreground=foreground, ctx=ctx)
        latency += block_latency
        # Lazy point search: binary-search the encoded buffer through the
        # restart-point offsets and decode only the candidate record.
        return block.search(user_key), latency, False

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def iter_from(self, user_key: bytes, cache: BlockCache, *, foreground: bool = True, ctx=None) -> Iterator[tuple[Record, float]]:
        """Yield (record, latency-of-this-step) for keys >= ``user_key``.

        A :class:`RunCursor` over this one table, with each step
        materialized as a :class:`Record`: the latency of the index
        fetch and of each block fetch is attributed to the first record
        yielded after that fetch.
        """
        cursor = RunCursor((self,), 0, user_key, cache, foreground=foreground, ctx=ctx)
        while cursor.advance():
            yield (
                Record(cursor.key, MAX_SEQNO - cursor.inv, ValueKind(cursor.kind), cursor.value()),
                cursor.latency,
            )

    def read_all_records(self, *, foreground: bool = False) -> tuple[list[Record], float]:
        """Sequentially read every record (the record-domain input scan).

        Zero-copy: records are decoded directly out of the file's own
        buffer at the offsets the index gives — no per-block slice is
        ever materialized.
        """
        data, index, latency = self._read_data_region(foreground)
        records: list[Record] = []
        for entry in index:
            extend_records_from(data, entry.offset, entry.length, records)
        return records, latency

    def read_all_spans(
        self,
        keys: list[bytes],
        seqnos: list[int],
        kinds: list[int],
        starts: list[int],
        ends: list[int],
        hashes: list[int],
        *,
        foreground: bool = False,
    ) -> tuple[bytes, int, float]:
        """Sequentially read every record as an encoded span.

        The encoded-domain counterpart of :meth:`read_all_records`: the
        device reads are identical, but instead of constructing Record
        objects it appends one entry per record to the parallel output
        arrays — ``hashes`` from the table's resident column (computed
        once for a reopened table), the rest from the blocks. The
        returned buffer is the file's own immutable bytes; spans index
        into it. Returns (buffer, record_count, latency).
        """
        data, index, latency = self._read_data_region(foreground)
        count = 0
        for entry in index:
            count += extend_spans_from(
                data, entry.offset, entry.length, keys, seqnos, kinds, starts, ends
            )
        if self._key_hashes is None:
            self._key_hashes = array("Q", key_hashes(keys[len(keys) - count :]))
        hashes.extend(self._key_hashes)
        return data, count, latency

    def _read_data_region(self, foreground: bool) -> tuple[bytes, list[IndexEntry], float]:
        """Charge one read of the whole data region, then of the index if
        cold: (file bytes, index, latency). The region starts at byte 0,
        so index offsets are offsets into the file's immutable bytes."""
        _, latency = self._backend.read(self.file, 0, self.data_length, foreground=foreground)
        if self._index is None:
            data, index_latency = self._backend.read(
                self.file, self.index_offset, self.index_length, foreground=foreground
            )
            latency += index_latency
            self._index = decode_index(data)
            self._index_keys = [entry.last_key for entry in self._index]
        return self.file.data, self._index, latency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.file_id}, tier={self.tier.name}, "
            f"[{self.smallest_key!r}..{self.largest_key!r}], "
            f"{self.entry_count} entries, score={self.popularity_score:.0f})"
        )

    @staticmethod
    def open(backend: StorageBackend, file: SimFile, *, foreground: bool = False) -> "SSTable":
        """Reconstruct a table handle from its on-"disk" footer.

        The restart path: reads the footer tail, then the fixed footer
        and boundary keys, and returns a handle with cold (not yet
        resident) filter and index. Raises :class:`CorruptionError` on a
        bad magic number or malformed footer.
        """
        tail_size = _FOOTER_TAIL.size
        if file.size < tail_size:
            raise CorruptionError(f"file {file.file_id} too small for a footer")
        tail_bytes, _ = backend.read(file, file.size - tail_size, tail_size, foreground=foreground)
        smallest_len, largest_len, magic = _FOOTER_TAIL.unpack(tail_bytes)
        if magic != _FOOTER_MAGIC:
            raise CorruptionError(f"file {file.file_id}: bad footer magic {magic:#x}")
        footer_size = _FOOTER_FIXED.size + smallest_len + largest_len + tail_size
        if file.size < footer_size:
            raise CorruptionError(f"file {file.file_id}: truncated footer")
        footer_bytes, _ = backend.read(
            file, file.size - footer_size, footer_size - tail_size, foreground=foreground
        )
        (
            data_length,
            filter_offset,
            filter_length,
            index_offset,
            index_length,
            entry_count,
            tombstone_count,
            max_seqno,
            popularity_score,
            created_at_usec,
        ) = _FOOTER_FIXED.unpack_from(footer_bytes, 0)
        keys_start = _FOOTER_FIXED.size
        # footer_bytes is a zero-copy view; boundary keys live on in the
        # table handle (and in key comparisons), so pin them as bytes.
        smallest_key = bytes(footer_bytes[keys_start : keys_start + smallest_len])
        largest_key = bytes(
            footer_bytes[keys_start + smallest_len : keys_start + smallest_len + largest_len]
        )
        return SSTable(
            backend,
            file,
            smallest_key=smallest_key,
            largest_key=largest_key,
            entry_count=entry_count,
            tombstone_count=tombstone_count,
            data_length=data_length,
            filter_offset=filter_offset,
            filter_length=filter_length,
            index_offset=index_offset,
            index_length=index_length,
            popularity_score=popularity_score,
            created_at_usec=created_at_usec,
            max_seqno=max_seqno,
        )


class RunCursor:
    """Lazy encoded-domain cursor over one sorted run, for range scans.

    Walks ``run[pos:]`` — the files of one sorted run from a
    :meth:`~repro.lsm.version.LevelManifest.seek_runs` position, or a
    single L0 table — file by file and block by block through the
    cache-mediated fetch helpers, and never builds a :class:`Record`.

    The protocol the scan merge drives (``MemtableCursor`` is the other
    implementation): :meth:`advance` moves to the next record with user
    key >= ``start_key`` and returns False once the run is exhausted;
    after a True return ``key`` / ``inv`` (``MAX_SEQNO - seqno``, so
    ``(key, inv)`` sorts in internal-key order) / ``kind`` (the wire
    code: 0 is a tombstone) describe the record, :meth:`value` slices
    its value out of the block, and ``latency`` is the simulated cost of
    the fetches this advance made — the index latency when it opened a
    file, then each block latency in fetch order; 0.0 when the record
    came from the block already in hand.

    Fetches are lazy and their order is part of the simulated result:
    nothing is read before the first ``advance()``, the next block is
    fetched only when an advance runs off the current one, and the next
    file's index only when the previous file is exhausted. The first
    block is entered by bisecting its restart offsets; every record the
    cursor lands on gets the checks ``Record.decode_from`` and
    ``DataBlock.records()`` apply (header and body inside the record
    region, kind, seqno, record end == next restart offset). Records it
    never lands on are not decoded.
    """

    __slots__ = (
        "key", "inv", "kind", "latency",
        "_run", "_run_pos", "_start_key", "_cache", "_foreground", "_ctx",
        "_table", "_entries", "_entry_pos",
        "_buf", "_offsets", "_count", "_records_end", "_index",
        "_value_start", "_end",
    )

    def __init__(self, run, pos: int, start_key: bytes, cache: BlockCache, *, foreground: bool = True, ctx=None) -> None:
        self._run = run
        self._run_pos = pos  # next file to open
        self._start_key = start_key
        self._cache = cache
        self._foreground = foreground
        self._ctx = ctx
        self._entries: list[IndexEntry] | tuple = ()
        self._entry_pos = 0  # next block of the open file to fetch
        self._count = 0
        self._index = -1  # negative until the first landing: seek, don't start at 0

    def advance(self) -> bool:
        """Land on the next record; False once the run is exhausted."""
        index = self._index + 1
        if index < self._count:
            self.latency = 0.0
        elif self._next_block():
            index = self._index
        else:
            return False
        offsets = self._offsets
        offset = offsets[index]
        records_end = self._records_end
        if offset + RECORD_HEADER_SIZE > records_end:
            raise CorruptionError(f"truncated record header at offset {offset}")
        buf = self._buf
        key_len, value_len, kind, seqno = unpack_record_header(buf, offset)
        if kind > 1:
            raise CorruptionError(f"bad record kind {kind} at offset {offset}")
        if seqno > MAX_SEQNO:
            raise CorruptionError(f"seqno out of range at offset {offset}: {seqno}")
        key_start = offset + RECORD_HEADER_SIZE
        value_start = key_start + key_len
        end = value_start + value_len
        if end > records_end:
            raise CorruptionError(f"truncated record body at offset {offset}")
        self._index = index
        index += 1
        if end != (offsets[index] if index < self._count else records_end):
            raise CorruptionError(
                f"record at offset {offset} ends at {end}, not at the next restart offset"
            )
        self.key = buf[key_start:value_start].tobytes()
        self.inv = MAX_SEQNO - seqno
        self.kind = kind
        self._value_start = value_start
        self._end = end
        return True

    def value(self) -> bytes:
        """The current record's value (``b""`` for a tombstone)."""
        return self._buf[self._value_start : self._end].tobytes()

    def _next_block(self) -> bool:
        """Fetch forward to the next block holding a record to land on.

        Sets the block fields, ``_index`` (the landing position) and
        ``latency``; returns False when the run has no further block.
        """
        cache, foreground, ctx = self._cache, self._foreground, self._ctx
        pending = 0.0
        while True:
            entries = self._entries
            pos = self._entry_pos
            if pos == len(entries):
                if self._run_pos == len(self._run):
                    return False  # and every later call lands here again
                table = self._table = self._run[self._run_pos]
                self._run_pos += 1
                # A new file starts a new pending latency: its index
                # fetch first, exactly as a fresh per-file iterator did.
                self._entries, pending = table._index_entries(cache, foreground=foreground, ctx=ctx)
                self._entry_pos = bisect.bisect_left(table._index_keys, self._start_key)
                continue
            block, block_latency = self._table._data_block(
                entries[pos], cache, foreground=foreground, ctx=ctx
            )
            pending += block_latency
            self._entry_pos = pos + 1
            index = block.seek(self._start_key) if self._index < 0 else 0
            if index < block.count:
                buf = block.buf
                self._buf = memoryview(buf) if type(buf) is bytes else buf
                self._offsets = block.offsets
                self._count = block.count
                self._records_end = block.records_end
                self._index = index
                self.latency = pending
                return True


def plan_files(
    sizes: list[int], block_bytes: int, target_file_bytes: float
) -> tuple[list[list[int]], list[int]]:
    """Cut a stream of encoded records into files of blocks.

    Reproduces, one step per *block*, the two rules the per-record entry
    points apply after every record: a block closes once its serialized
    size reaches ``block_bytes``, and a file closes once its closed
    blocks plus the open one reach ``target_file_bytes`` — checked
    after the block rule, so a file may close mid-block. Returns the
    files that closed, each as the exclusive end positions of its
    blocks, and the blocks of the trailing file still open when the
    stream ended (empty if the last record closed its file).
    """
    costs = record_costs(sizes)
    n = len(sizes)
    files: list[list[int]] = []
    blocks: list[int] = []
    file_start = start = 0
    while start < n:
        # First positions at which the open block, then the file with
        # that block still open, reach their targets; n + 1 when the
        # stream ends first.
        end = bisect.bisect_left(costs, costs[start] + block_bytes - EMPTY_BLOCK_BYTES, start + 1)
        file_cost = target_file_bytes - EMPTY_BLOCK_BYTES * (len(blocks) + 1)
        cut = bisect.bisect_left(costs, costs[file_start] + file_cost, start + 1)
        if cut < end:
            end = cut  # the file fills inside this block
        elif end > n:
            blocks.append(n)  # the stream ends inside this block
            break
        blocks.append(end)
        start = end
        # The block just closed is followed by an empty open one.
        if costs[end] - costs[file_start] + EMPTY_BLOCK_BYTES * (len(blocks) + 1) >= target_file_bytes:
            files.append(blocks)
            blocks = []
            file_start = end
    return files, blocks


class SSTableBuilder:
    """Builds one SSTable from records supplied in internal-key order.

    ``clock_values_fn`` maps the file's user keys to their tracker CLOCK
    values (:data:`UNTRACKED_CLOCK_VALUE` for unknown keys) in one call
    at :meth:`finish`, which sums the paper's popularity score Σ clockⁿ
    in key order. Records arrive one at a time (:meth:`add`,
    :meth:`add_encoded`) or a whole file at once, already cut into
    blocks by :func:`plan_files` (:meth:`add_encoded_blocks`).
    """

    def __init__(
        self,
        backend: StorageBackend,
        tier: StorageTier,
        *,
        block_bytes: int,
        target_file_bytes: int,
        bits_per_key: int = 10,
        clock_values_fn: Callable[[list[bytes]], Iterable[int]] | None = None,
        score_exponent: int = 3,
    ) -> None:
        self._backend = backend
        self._tier = tier
        self.target_file_bytes = target_file_bytes
        self._bits_per_key = bits_per_key
        self._clock_values_fn = clock_values_fn
        self._score_exponent = score_exponent
        self._block = DataBlockBuilder(block_bytes)
        self._finished_blocks: list[bytes] = []
        self._index: list[IndexEntry] = []
        self._data_bytes = 0
        self._keys: list[bytes] = []
        self._hashes: list[int] = []
        self._smallest: bytes | None = None
        self._largest: bytes | None = None
        self._entry_count = 0
        self._tombstones = 0
        self._max_seqno = 0

    @property
    def entry_count(self) -> int:
        return self._entry_count

    @property
    def estimated_bytes(self) -> int:
        return self._data_bytes + self._block.estimated_bytes

    def should_finish(self) -> bool:
        """True when the file has reached its target size."""
        return self.estimated_bytes >= self.target_file_bytes

    def add(self, record: Record) -> None:
        """Add one record (encoded here; raises ValueError out of order)."""
        self._block.add(record)
        self._note_added(record.user_key, record.seqno, record.kind)

    def add_encoded(
        self, key: bytes, seqno: int, kind_code: int, buf, start: int, end: int
    ) -> None:
        """Add one record already encoded at ``buf[start:end]``.

        Mirrors every side effect of :meth:`add` while the payload flows
        through as a slice, so the finished table is byte-identical to
        one built from the equivalent Record objects.
        """
        self._block.add_span(key, seqno, buf, start, end)
        self._note_added(key, seqno, kind_code)

    def _note_added(self, key: bytes, seqno: int, kind_code: int) -> None:
        """Per-record bookkeeping: boundary keys, bloom key list,
        tombstone and seqno accounting, block rotation."""
        if self._smallest is None:
            self._smallest = key
        self._largest = key
        self._keys.append(key)
        self._hashes.append(fnv1a_64(key))
        self._entry_count += 1
        if kind_code == 0:
            self._tombstones += 1
        if seqno > self._max_seqno:
            self._max_seqno = seqno
        if self._block.is_full():
            self._flush_block()

    def add_encoded_blocks(
        self,
        keys: list[bytes],
        seqnos: list[int],
        kinds: list[int],
        chunks: list[bytes],
        sizes: list[int],
        hashes: list[int],
        start: int,
        block_ends: list[int],
    ) -> None:
        """Add records ``[start, block_ends[-1])`` of the parallel columns.

        The bulk form of :meth:`add_encoded`: ``chunks[i]`` is record
        i's encoding (``sizes[i]`` bytes, ``kinds[i]`` its wire code)
        and ``block_ends`` the exclusive end of each block, as
        :func:`plan_files` cut one file. The finished table is
        byte-identical to one fed the same records one at a time. Any
        block left open by the per-record entry points is closed first.
        """
        self._flush_block()
        stop = block_ends[-1]
        if self._smallest is None:
            self._smallest = keys[start]
        self._largest = keys[stop - 1]
        self._keys += keys[start:stop]
        self._hashes += hashes[start:stop]
        self._entry_count += stop - start
        self._tombstones += kinds[start:stop].count(0)
        self._max_seqno = max(self._max_seqno, max(seqnos[start:stop]))
        for end in block_ends:
            payload = encode_block(chunks, sizes, start, end)
            self._index.append(IndexEntry(keys[end - 1], self._data_bytes, len(payload)))
            self._finished_blocks.append(payload)
            self._data_bytes += len(payload)
            start = end

    def _flush_block(self) -> None:
        if len(self._block) == 0:
            return
        last_key = self._block.last_key
        assert last_key is not None
        payload = self._block.finish()
        self._index.append(IndexEntry(last_key, self._data_bytes, len(payload)))
        self._finished_blocks.append(payload)
        self._data_bytes += len(payload)

    def finish(self, *, foreground: bool = False) -> tuple[SSTable, float]:
        """Serialize remaining state and write the file to the tier."""
        if self._entry_count == 0:
            raise ValueError("cannot finish an empty SSTable")
        self._flush_block()
        bloom = BloomFilter.for_capacity(len(self._keys), self._bits_per_key)
        bloom.add_many(self._keys, self._hashes)
        filter_block = bloom.encode()
        index_block = encode_index(self._index)
        assert self._smallest is not None and self._largest is not None
        score = 0.0
        if self._clock_values_fn is not None:
            exponent = self._score_exponent
            # Left to right in key order: float addition is not
            # associative and the score is part of the file's bytes.
            for clock in map(float, self._clock_values_fn(self._keys)):
                # Three multiplies are exact for the integer CLOCK
                # values the trackers emit, and beat a pow() call.
                score += clock * clock * clock if exponent == 3 else clock**exponent
        created_at = self._backend.clock.now
        footer = (
            _FOOTER_FIXED.pack(
                self._data_bytes,
                self._data_bytes,
                len(filter_block),
                self._data_bytes + len(filter_block),
                len(index_block),
                self._entry_count,
                self._tombstones,
                self._max_seqno,
                score,
                created_at,
            )
            + self._smallest
            + self._largest
            + _FOOTER_TAIL.pack(len(self._smallest), len(self._largest), _FOOTER_MAGIC)
        )
        payload = b"".join(self._finished_blocks) + filter_block + index_block + footer
        file, latency = self._backend.create_file(self._tier, payload, foreground=foreground)
        table = SSTable(
            self._backend,
            file,
            smallest_key=self._smallest,
            largest_key=self._largest,
            entry_count=self._entry_count,
            tombstone_count=self._tombstones,
            data_length=self._data_bytes,
            filter_offset=self._data_bytes,
            filter_length=len(filter_block),
            index_offset=self._data_bytes + len(filter_block),
            index_length=len(index_block),
            popularity_score=score,
            created_at_usec=created_at,
            max_seqno=self._max_seqno,
        )
        # A freshly written table's filter and index are already in
        # memory (we just built them): resident from birth, as in
        # RocksDB's table cache.
        table._bloom = bloom
        table._key_hashes = array("Q", self._hashes)
        table._index = list(self._index)
        table._index_keys = [entry.last_key for entry in self._index]
        return table, latency
