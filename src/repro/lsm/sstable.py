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
from functools import partial
from typing import Callable, Iterable, Iterator, MutableSequence, Sequence

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
from repro.obs.attribution import attribute, note_probe
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


#: A table's resident index as three columns, one row per data block:
#: the block's last user key, its offset and its length (the wire widths).
Index = tuple[list[bytes], array, array]


def encode_index(keys: list[bytes], offsets: Iterable[int], lengths: Iterable[int]) -> bytes:
    parts = [_INDEX_COUNT.pack(len(keys))]
    for key, offset, length in zip(keys, offsets, lengths, strict=True):
        parts.append(_INDEX_ENTRY.pack(len(key), offset, length))
        parts.append(key)
    return b"".join(parts)


def decode_index(buf: bytes | memoryview) -> Index:
    """(last keys, ``array('Q')`` offsets, ``array('I')`` lengths)."""
    if len(buf) < _INDEX_COUNT.size:
        raise CorruptionError("truncated index block")
    (count,) = _INDEX_COUNT.unpack_from(buf, 0)
    keys: list[bytes] = []
    offsets = array("Q")
    lengths = array("I")
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
        keys.append(bytes(last_key) if is_view else last_key)
        offsets.append(offset)
        lengths.append(length)
    return keys, offsets, lengths


class SSTable:
    """Handle to one immutable table: metadata plus the read path.

    ``size_bytes`` and the resident key-hash column are captured when
    the handle is made: a failure-injection swap of ``file.data``
    changes neither a live table's accounted size nor its hashes.
    The resident index is the :data:`Index` columns ``_index_keys``,
    ``_index_offsets`` and ``_index_lengths``, all None until loaded.
    """

    __slots__ = (
        "_backend", "file", "size_bytes", "max_seqno", "smallest_key", "largest_key",
        "entry_count", "tombstone_count", "data_length", "filter_offset", "filter_length",
        "index_offset", "index_length", "popularity_score", "created_at_usec", "_bloom",
        "_key_hashes", "_index_keys", "_index_offsets", "_index_lengths",
        "_bloom_hit_latency", "_index_hit_latency",
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
        self._index_keys: list[bytes] | None = None
        self._index_offsets: array | None = None
        self._index_lengths: array | None = None
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
    def _load_bloom_filter(self, cache: BlockCache) -> tuple[BloomFilter, float]:
        # Filter blocks behave like RocksDB's table cache: loaded from
        # the device on first access, then resident in table memory for
        # the file's lifetime (get() serves the resident case itself).
        bloom, latency = cache.get_or_load_decoded(
            self.file_id, self.filter_offset, BlockType.FILTER,
            partial(self._backend.read, self.file, self.filter_offset, self.filter_length,
                    component="filter"),
            BloomFilter.decode,
        )
        self._bloom = bloom
        return bloom, latency

    def _load_index(self, cache: BlockCache) -> float:
        """Make the index columns resident; returns the access latency."""
        # Index blocks live in the table cache as well (see above).
        if self._index_keys is not None:
            cache.index_resident_hit()
            latency = self._index_hit_latency
            attribute("index", "dram", latency)
            return latency
        index, latency = cache.get_or_load_decoded(
            self.file_id, self.index_offset, BlockType.INDEX,
            partial(self._backend.read, self.file, self.index_offset, self.index_length,
                    component="index"),
            decode_index,
        )
        self._index_keys, self._index_offsets, self._index_lengths = index
        return latency

    def _data_block(self, offset: int, length: int, cache: BlockCache) -> tuple[DataBlock, float]:
        # One cache call; the block is a window over the file's own bytes.
        return cache.data_block(self._backend, self.file, offset, length, DataBlock)

    def block_offsets(self) -> list[int]:
        """Offsets of every block the cache may hold for this table —
        filter, index and data — read from the resident index."""
        return [self.filter_offset, self.index_offset, *self._index_offsets]

    # ------------------------------------------------------------------
    # Point lookup
    # ------------------------------------------------------------------
    def get(self, user_key: bytes, cache: BlockCache, key_hash: int | None = None) -> tuple[Record | None, float, bool]:
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
            attribute("filter", "dram", latency)
        else:
            bloom, latency = self._load_bloom_filter(cache)
        may_contain = bloom.may_contain(user_key, key_hash)
        note_probe(may_contain, bloom.n_probes)
        if not may_contain:
            return None, latency, True
        index_keys = self._index_keys
        if index_keys is not None:
            cache.index_resident_hit()
            latency += self._index_hit_latency
            attribute("index", "dram", self._index_hit_latency)
        else:
            latency += self._load_index(cache)
            index_keys = self._index_keys
        pos = bisect.bisect_left(index_keys, user_key)
        if pos >= len(index_keys):
            return None, latency, False
        block, block_latency = self._data_block(
            self._index_offsets[pos], self._index_lengths[pos], cache
        )
        latency += block_latency
        # Lazy point search: binary-search the encoded buffer through the
        # restart-point offsets and decode only the candidate record.
        return block.search(user_key), latency, False

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def iter_from(self, user_key: bytes, cache: BlockCache) -> Iterator[tuple[Record, float]]:
        """Yield (record, latency-of-this-step) for keys >= ``user_key``.

        A :class:`RunCursor` over this one table, with each step
        materialized as a :class:`Record`: the latency of the index
        fetch and of each block fetch is attributed to the first record
        yielded after that fetch.
        """
        cursor = RunCursor((self,), 0, user_key, cache)
        while cursor.advance():
            yield (
                Record(cursor.key, MAX_SEQNO - cursor.inv, ValueKind(cursor.kind), cursor.value()),
                cursor.latency,
            )

    def read_all_records(self) -> list[Record]:
        """Sequentially read every record (the record-domain input scan).

        Zero-copy: records are decoded directly out of the file's own
        buffer at the offsets the index gives — no per-block slice is
        ever materialized. The reads are background I/O.
        """
        data = self._read_data_region()
        records: list[Record] = []
        for offset, length in zip(self._index_offsets, self._index_lengths):
            extend_records_from(data, offset, length, records)
        return records

    def read_all_spans(
        self,
        keys: list[bytes],
        seqnos: MutableSequence[int],
        kinds: MutableSequence[int],
        starts: MutableSequence[int],
        ends: MutableSequence[int],
        hashes: MutableSequence[int],
    ) -> tuple[bytes, int]:
        """Sequentially read every record as an encoded span.

        The encoded-domain counterpart of :meth:`read_all_records`: the
        device reads are identical, but instead of constructing Record
        objects it appends one entry per record to the parallel output
        columns — ``hashes`` from the table's resident column (computed
        once for a reopened table), the rest from the blocks. Every
        column but ``keys`` may be a list or unboxed: ``kinds`` a
        bytearray, the others ``array('Q')``, into which the hashes are
        one memory copy. The returned buffer is the file's own immutable
        bytes; spans index into it. Returns (buffer, record_count).
        """
        data = self._read_data_region()
        count = 0
        for offset, length in zip(self._index_offsets, self._index_lengths):
            count += extend_spans_from(
                data, offset, length, keys, seqnos, kinds, starts, ends
            )
        if self._key_hashes is None:
            self._key_hashes = array("Q", key_hashes(keys[len(keys) - count :]))
        hashes.extend(self._key_hashes)
        return data, count

    def _read_data_region(self) -> bytes:
        """Charge one background read of the whole data region, then of
        the index if cold (leaving its columns resident), and return the
        file's bytes. The region starts at byte 0, so index offsets are
        offsets into the file's immutable bytes."""
        self._backend.read(self.file, 0, self.data_length, foreground=False)
        if self._index_keys is None:
            data, _ = self._backend.read(
                self.file, self.index_offset, self.index_length, foreground=False
            )
            self._index_keys, self._index_offsets, self._index_lengths = decode_index(data)
        return self.file.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.file_id}, tier={self.tier.name}, "
            f"[{self.smallest_key!r}..{self.largest_key!r}], "
            f"{self.entry_count} entries, score={self.popularity_score:.0f})"
        )

    @staticmethod
    def open(backend: StorageBackend, file: SimFile) -> "SSTable":
        """Reconstruct a table handle from its on-"disk" footer.

        The restart path: reads the footer tail, then the fixed footer
        and boundary keys, and returns a handle with cold (not yet
        resident) filter and index. Raises :class:`CorruptionError` on a
        bad magic number or malformed footer.
        """
        tail_size = _FOOTER_TAIL.size
        if file.size < tail_size:
            raise CorruptionError(f"file {file.file_id} too small for a footer")
        tail_bytes, _ = backend.read(file, file.size - tail_size, tail_size, foreground=False)
        smallest_len, largest_len, magic = _FOOTER_TAIL.unpack(tail_bytes)
        if magic != _FOOTER_MAGIC:
            raise CorruptionError(f"file {file.file_id}: bad footer magic {magic:#x}")
        footer_size = _FOOTER_FIXED.size + smallest_len + largest_len + tail_size
        if file.size < footer_size:
            raise CorruptionError(f"file {file.file_id}: truncated footer")
        footer_bytes, _ = backend.read(
            file, file.size - footer_size, footer_size - tail_size, foreground=False
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
    single table — file by file and block by block through the
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
    never lands on are not decoded. ``key`` and :meth:`value` are
    ``bytes`` slices of the block's window over the file's own bytes.
    """

    __slots__ = (
        "key", "inv", "kind", "latency",
        "_run", "_run_pos", "_start_key", "_cache",
        "_table", "_index_offsets", "_index_lengths", "_entry_pos",
        "_buf", "_base", "_offsets", "_count", "_records_end", "_index",
        "_value_start", "_end",
    )

    def __init__(self, run, pos: int, start_key: bytes, cache: BlockCache) -> None:
        self._run = run
        self._run_pos = pos  # next file to open
        self._start_key = start_key
        self._cache = cache
        self._index_offsets: array | tuple = ()
        self._index_lengths: array | tuple = ()
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
        base = self._base
        offsets = self._offsets
        offset = base + offsets[index]
        records_end = self._records_end
        if offset + RECORD_HEADER_SIZE > records_end:
            raise CorruptionError(f"truncated record header at offset {offset - base}")
        buf = self._buf
        key_len, value_len, kind, seqno = unpack_record_header(buf, offset)
        if kind > 1:
            raise CorruptionError(f"bad record kind {kind} at offset {offset - base}")
        if seqno > MAX_SEQNO:
            raise CorruptionError(f"seqno out of range at offset {offset - base}: {seqno}")
        key_start = offset + RECORD_HEADER_SIZE
        value_start = key_start + key_len
        end = value_start + value_len
        if end > records_end:
            raise CorruptionError(f"truncated record body at offset {offset - base}")
        self._index = index
        index += 1
        if end != (base + offsets[index] if index < self._count else records_end):
            raise CorruptionError(
                f"record at offset {offset - base} ends at {end - base}, "
                "not at the next restart offset"
            )
        self.key = buf[key_start:value_start]
        self.inv = MAX_SEQNO - seqno
        self.kind = kind
        self._value_start = value_start
        self._end = end
        return True

    def value(self) -> bytes:
        """The current record's value (``b""`` for a tombstone)."""
        return self._buf[self._value_start : self._end]

    def _next_block(self) -> bool:
        """Fetch forward to the next block holding a record to land on.

        Sets the block fields, ``_index`` (the landing position) and
        ``latency``; returns False when the run has no further block.
        """
        cache = self._cache
        pending = 0.0
        while True:
            offsets = self._index_offsets
            pos = self._entry_pos
            if pos == len(offsets):
                if self._run_pos == len(self._run):
                    return False  # and every later call lands here again
                table = self._table = self._run[self._run_pos]
                self._run_pos += 1
                # A new file starts a new pending latency: its index
                # fetch first, exactly as a fresh per-file iterator did.
                pending = table._load_index(cache)
                self._index_offsets = table._index_offsets
                self._index_lengths = table._index_lengths
                self._entry_pos = bisect.bisect_left(table._index_keys, self._start_key)
                continue
            block, block_latency = self._table._data_block(
                offsets[pos], self._index_lengths[pos], cache
            )
            pending += block_latency
            self._entry_pos = pos + 1
            index = block.seek(self._start_key) if self._index < 0 else 0
            if index < block.count:
                self._buf = block.buf
                self._base = block.base
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
    at :meth:`finish`, which sums the paper's popularity score Σ clock³
    (§4.3) in key order. Records arrive one at a time (:meth:`add`,
    :meth:`add_encoded`) or a whole file at once, already cut into
    blocks by :func:`plan_files` (:meth:`add_encoded_blocks`);
    :meth:`adopt` writes an existing table again when rebuilding it
    would change only its footer.
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
    ) -> None:
        self._backend = backend
        self._tier = tier
        self.target_file_bytes = target_file_bytes
        self._bits_per_key = bits_per_key
        self._clock_values_fn = clock_values_fn
        self._block = DataBlockBuilder(block_bytes)
        self._finished_blocks: list[bytes] = []
        # The index columns the finished table keeps resident.
        self._index_keys: list[bytes] = []
        self._index_offsets = array("Q")
        self._index_lengths = array("I")
        self._data_bytes = 0
        self._keys: list[bytes] = []
        self._hashes = array("Q")
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
        seqnos: Sequence[int],
        kinds: Sequence[int],
        chunks: list[bytes],
        sizes: Sequence[int],
        hashes: Sequence[int],
        start: int,
        block_ends: list[int],
    ) -> None:
        """Add records ``[start, block_ends[-1])`` of the parallel columns.

        The bulk form of :meth:`add_encoded`: ``chunks`` holds those
        records' encodings only (record i's is ``chunks[i - start]``,
        ``sizes[i]`` bytes, ``kinds[i]`` its wire code), so a caller
        copies one file's record bytes at a time; ``block_ends`` is the
        exclusive end of each block, as :func:`plan_files` cut one file.
        The other columns may be lists or unboxed arrays. The finished
        table is byte-identical to one fed the same records one at a
        time. Any block left open by the per-record entry points is
        closed first.
        """
        self._flush_block()
        stop = block_ends[-1]
        if self._smallest is None:
            self._smallest = keys[start]
        self._largest = keys[stop - 1]
        self._keys += keys[start:stop]
        self._hashes.extend(hashes[start:stop])
        self._entry_count += stop - start
        self._tombstones += kinds[start:stop].count(0)
        self._max_seqno = max(self._max_seqno, max(seqnos[start:stop]))
        first = start
        for end in block_ends:
            block = encode_block(chunks[start - first : end - first], sizes, start, end)
            self._append_block(keys[end - 1], block)
            start = end

    def _flush_block(self) -> None:
        if len(self._block) == 0:
            return
        last_key = self._block.last_key
        assert last_key is not None
        self._append_block(last_key, self._block.finish())

    def _append_block(self, last_key: bytes, payload: bytes) -> None:
        self._index_keys.append(last_key)
        self._index_offsets.append(self._data_bytes)
        self._index_lengths.append(len(payload))
        self._finished_blocks.append(payload)
        self._data_bytes += len(payload)

    def finish(self) -> SSTable:
        """Serialize remaining state and write the file to the tier
        (background I/O)."""
        if self._entry_count == 0:
            raise ValueError("cannot finish an empty SSTable")
        self._flush_block()
        bloom = BloomFilter.for_capacity(len(self._keys), self._bits_per_key)
        bloom.add_many(self._keys, self._hashes)
        filter_block = bloom.encode()
        index = self._index_keys, self._index_offsets, self._index_lengths
        index_block = encode_index(*index)
        return self._write(
            [*self._finished_blocks, filter_block, index_block],
            # An exact-size copy: the builder's column has growth slack.
            len(filter_block), len(index_block), bloom, array("Q", self._hashes), index,
        )

    def adopt(
        self, table: SSTable, keys: list[bytes], seqnos: Sequence[int], kinds: Sequence[int],
        sizes: Sequence[int]
    ) -> SSTable | None:
        """``table``'s data, filter and index bytes under a fresh footer, or None.

        The columns are ``table``'s records as an input scan read them
        (lists or unboxed arrays). If :func:`plan_files` cuts them into
        ``table``'s blocks and their filter has its geometry, :meth:`finish`
        would change only the footer's score and ``created_at``; the handle
        shares ``table``'s resident state."""
        closed, trailing = plan_files(sizes, self._block.target_bytes, self.target_file_bytes)
        if len(closed) + bool(trailing) != 1:
            return None
        block_ends = trailing or closed[0]
        costs = record_costs(sizes)
        lengths = [costs[end] - costs[start] + EMPTY_BLOCK_BYTES
                   for start, end in zip([0, *block_ends], block_ends)]
        if lengths != table._index_lengths.tolist():
            return None
        bloom = table._bloom
        if bloom is None:  # reopened cold: the filter is in the file
            start = table.filter_offset
            bloom = BloomFilter.decode(table.file.view[start : start + table.filter_length])
        fresh = BloomFilter.for_capacity(len(keys), self._bits_per_key)
        if (fresh.n_bits, fresh.n_probes) != (bloom.n_bits, bloom.n_probes):
            return None
        self._keys, self._smallest, self._largest = keys, keys[0], keys[-1]
        self._entry_count, self._tombstones = len(keys), kinds.count(0)
        self._max_seqno, self._data_bytes = max(seqnos), table.data_length
        return self._write(
            [table.file.view[: table.index_offset + table.index_length]],
            table.filter_length, table.index_length, bloom, table._key_hashes,
            (table._index_keys, table._index_offsets, table._index_lengths),
        )

    def _write(
        self, regions: list, filter_length: int, index_length: int, bloom: BloomFilter,
        hashes: array, index: Index,
    ) -> SSTable:
        """Score, footer, file and resident handle for :meth:`finish` and
        :meth:`adopt`; ``regions`` are the data, filter and index bytes."""
        assert self._smallest is not None and self._largest is not None
        score = 0.0
        if self._clock_values_fn is not None:
            # Left to right in key order: float addition is not
            # associative and the score is part of the file's bytes.
            for clock in map(float, self._clock_values_fn(self._keys)):
                # Three multiplies (the paper's exponent) are exact for
                # the integer CLOCK values the trackers emit.
                score += clock * clock * clock
        created_at = self._backend.clock.now
        footer = (
            _FOOTER_FIXED.pack(
                self._data_bytes,
                self._data_bytes,
                filter_length,
                self._data_bytes + filter_length,
                index_length,
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
        payload = b"".join([*regions, footer])
        file = self._backend.create_file(self._tier, payload)
        table = SSTable(
            self._backend,
            file,
            smallest_key=self._smallest,
            largest_key=self._largest,
            entry_count=self._entry_count,
            tombstone_count=self._tombstones,
            data_length=self._data_bytes,
            filter_offset=self._data_bytes,
            filter_length=filter_length,
            index_offset=self._data_bytes + filter_length,
            index_length=index_length,
            popularity_score=score,
            created_at_usec=created_at,
            max_seqno=self._max_seqno,
        )
        # A freshly written table's filter and index are already in
        # memory (just built, or carried over): resident from birth, as
        # in RocksDB's table cache.
        table._bloom = bloom
        table._key_hashes = hashes
        table._index_keys, table._index_offsets, table._index_lengths = index
        return table
