"""Data block encoding.

An SSTable's payload is a sequence of ~4 KB *data blocks*, each holding a
run of records in internal-key order. Blocks are the unit of device I/O
and of block-cache residency — the granularity mismatch between 4 KB
blocks and ~100 B objects is central to the paper's caching analysis
(§3.3), so blocks here are real serialized byte strings, not lists.

Wire format (v2, LevelDB-style restart trailer)::

    record[0] .. record[count-1]      # concatenated Record encodings
    u32 offset[0] .. offset[count-1]  # byte offset of each record
    u16 count

The restart-point offset array lets a reader *binary-search the encoded
buffer* instead of materializing every record in the block.
:class:`DataBlock` is the decoded-side handle, a *window* over
immutable ``bytes`` — for a fetched block, the file's own, so nothing is
copied and a key or value sliced out is one ``bytes`` allocation. It
parses the trailer once (one unboxed array copy) and then serves lazy
point searches (:meth:`DataBlock.search` decodes only the candidate) and
range-scan seeks (:meth:`DataBlock.seek`; the scan cursor in
:mod:`repro.lsm.sstable` then walks the encoded records itself). Every
read from a window is bounded by its ``records_end``, never by
``len(buf)``, so a corrupt length raises instead of reaching into the
next block; offsets and error messages stay block-relative.
:meth:`DataBlock.records` is the decode *specification* (compactions
read whole files through :func:`extend_spans_from`). The block cache
keeps ``DataBlock`` objects so a cache hit never re-parses anything.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left
from itertools import accumulate, islice
from typing import MutableSequence, Sequence

from repro.errors import CorruptionError
from repro.lsm.record import MAX_SEQNO, Record

_COUNT = struct.Struct("<H")
_OFFSET = struct.Struct("<I")
_KEY_LEN = struct.Struct("<H")
#: Record header layout (key_len, value_len, kind, seqno); mirrored from
#: :mod:`repro.lsm.record` so key peeks avoid building Record objects.
_REC_HEADER = struct.Struct("<HIBQ")
#: Serialized size of a block holding no records: the count trailer.
EMPTY_BLOCK_BYTES = _COUNT.size

# A resident restart array is the wire's u32 run copied into an array('I').
if array("I").itemsize != _OFFSET.size:  # pragma: no cover - no such CPython target
    raise ImportError(f"array('I') holds {array('I').itemsize} bytes, not {_OFFSET.size}")


def restart_offsets(buf: bytes, start: int, end: int, byteorder: str = sys.byteorder) -> array:
    """The little-endian u32 restart offsets at ``buf[start:end]``, unboxed.

    A host of ``byteorder`` reads the run natively; a big-endian one
    then byteswaps it into the wire's values.
    """
    offsets = array("I")
    offsets.frombytes(buf[start:end])
    if byteorder == "big":
        offsets.byteswap()
    return offsets


def record_costs(sizes: list[int]) -> list[int]:
    """Prefix sums of what each encoded record adds to a block.

    A record of ``size`` bytes costs ``size`` plus one restart offset,
    so records ``[i, j)`` serialize to ``costs[j] - costs[i] +
    EMPTY_BLOCK_BYTES`` bytes — :attr:`DataBlockBuilder.estimated_bytes`
    for every prefix at once, which lets a bulk build find where a block
    fills by bisection instead of by adding records one at a time.
    """
    return list(accumulate(map(_OFFSET.size.__add__, sizes), initial=0))


def encode_block(chunks: list[bytes], sizes: Sequence[int], start: int, end: int) -> bytes:
    """Serialize records ``[start, end)`` of a stream as one block.

    The one serializer of the block format: one join, one pack of the
    restart array and count. ``chunks`` are exactly those records'
    encodings; ``sizes`` are the lengths of the whole stream's.
    """
    count = end - start
    if count > 0xFFFF:
        raise ValueError(f"too many records in one block: {count}")
    restarts = accumulate(islice(sizes, start, end - 1), initial=0) if count else ()
    return b"".join(chunks) + struct.pack(f"<{count}IH", *restarts, count)


class DataBlockBuilder:
    """Accumulates records (already in internal-key order) into one block.

    The per-record way to build a block (a whole block at once is
    :func:`encode_block`, which also serializes this one). Contents are
    kept *encoded*: :meth:`add` serializes the record immediately, and
    :meth:`add_span` accepts a pre-encoded record as a ``[start, end)``
    span of some source buffer. Both produce byte-identical blocks
    because the wire encoding of a record is a pure function of its
    fields.
    """

    __slots__ = (
        "target_bytes", "_chunks", "_sizes", "_estimated",
        "_last_key", "_last_inv",
    )

    def __init__(self, target_bytes: int) -> None:
        if target_bytes <= 0:
            raise ValueError(f"target_bytes must be positive: {target_bytes}")
        self.target_bytes = target_bytes
        self._chunks: list = []
        self._sizes: list[int] = []
        # Size is maintained incrementally (payload + one u32 restart
        # offset per record + the count trailer), and the order check
        # keeps the previous (key, inverted-seqno) pair instead of
        # building two sort-key tuples per add.
        self._estimated = EMPTY_BLOCK_BYTES
        self._last_key: bytes | None = None
        self._last_inv = 0

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def estimated_bytes(self) -> int:
        return self._estimated

    def add(self, record: Record) -> None:
        key = record.user_key
        inv = MAX_SEQNO - record.seqno
        last_key = self._last_key
        if last_key is not None and (
            key < last_key or (key == last_key and inv <= self._last_inv)
        ):
            raise ValueError(
                f"records out of order: {key!r}@{record.seqno} "
                f"after {last_key!r}@{MAX_SEQNO - self._last_inv}"
            )
        self._append(key, inv, record.encode())

    def add_span(self, key: bytes, seqno: int, buf, start: int, end: int) -> None:
        """Append one record already encoded at ``buf[start:end]``.

        The caller guarantees internal-key order, so no order check
        runs; the (key, inverted-seqno) cursor is still advanced so
        interleaved :meth:`add` calls stay safe.
        """
        self._append(key, MAX_SEQNO - seqno, buf[start:end])

    def _append(self, key: bytes, inv: int, encoded) -> None:
        self._last_key = key
        self._last_inv = inv
        self._chunks.append(encoded)
        self._sizes.append(len(encoded))
        self._estimated += _OFFSET.size + len(encoded)

    def is_full(self) -> bool:
        return self._estimated >= self.target_bytes

    @property
    def last_key(self) -> bytes | None:
        return self._last_key

    def finish(self) -> bytes:
        """Serialize and reset the builder."""
        payload = encode_block(self._chunks, self._sizes, 0, len(self._chunks))
        self.__init__(self.target_bytes)
        return payload


class DataBlock:
    """Decoded-side handle over one serialized data block.

    The block is the window ``buf[base : base + length]`` (the whole of
    ``buf`` by default). Construction parses only the restart trailer
    (count + offset array). Point lookups binary-search the *encoded*
    records through the offset array, peeking at keys via header reads,
    and decode exactly one candidate record; range scans :meth:`seek`
    the same way and walk on in the encoded domain. :meth:`records`
    materializes (and memoizes) the full validated list; nothing on the
    engine's read, scan or compaction paths calls it.

    ``offsets`` are block-relative, an unboxed ``array('I')`` copy of the
    trailer's run; ``records_end`` is the position in ``buf`` where the
    record region ends, the bound of every read.
    """

    __slots__ = ("buf", "base", "count", "offsets", "records_end", "_records", "_peeked")

    def __init__(self, buf: bytes, base: int = 0, length: int | None = None) -> None:
        end = len(buf) if length is None else base + length
        if end - base < _COUNT.size or end > len(buf):
            raise CorruptionError("truncated data block")
        (count,) = _COUNT.unpack_from(buf, end - _COUNT.size)
        records_end = end - _COUNT.size - count * _OFFSET.size
        if records_end < base:
            raise CorruptionError(
                f"truncated restart array: {count} records, {end - base} bytes"
            )
        offsets = restart_offsets(buf, records_end, end - _COUNT.size)
        if count and (offsets[0] != 0 or base + offsets[-1] >= records_end):
            raise CorruptionError(f"restart offsets out of range: {tuple(offsets[:4])}...")
        self.buf = buf
        self.base = base
        self.count = count
        self.offsets = offsets
        self.records_end = records_end
        self._records: list[Record] | None = None
        #: index -> user key, filled by binary-search peeks. Repeated
        #: point searches of a hot cached block revisit the same probe
        #: positions (the midpoints are a function of ``count`` alone),
        #: so memoizing them turns the steady-state search into pure
        #: dict hits.
        self._peeked: dict[int, bytes] = {}

    def __len__(self) -> int:
        return self.count

    def _key_at(self, index: int) -> bytes:
        """The user key of record ``index``, without building a Record."""
        key = self._peeked.get(index)
        if key is not None:
            return key
        base = self.base
        offset = base + self.offsets[index]
        start = offset + _REC_HEADER.size
        if start > self.records_end:
            raise CorruptionError(f"truncated record header at offset {offset - base}")
        (key_len,) = _KEY_LEN.unpack_from(self.buf, offset)
        if start + key_len > self.records_end:
            raise CorruptionError(f"truncated record key at offset {offset - base}")
        key = self._peeked[index] = self.buf[start : start + key_len]
        return key

    def seek(self, user_key: bytes) -> int:
        """Index of the first record with user key >= ``user_key``.

        ``count`` when every key is smaller. Bisects the restart offsets
        through :meth:`_key_at`, so only the probed keys are read.
        """
        return bisect_left(range(self.count), user_key, key=self._key_at)

    def search(self, user_key: bytes) -> Record | None:
        """Newest record for ``user_key``, decoding only the candidate.

        Records are in internal order (key asc, seqno desc), so the first
        record at-or-after ``user_key`` is the newest version if the keys
        match. The candidate is held to the cursor's framing rule: it
        must end exactly at the next restart offset (the last record at
        ``records_end``). When the record list is already materialized
        the search runs over it directly (no byte peeks).
        """
        records = self._records
        if records is not None:
            return search_block(records, user_key)
        key_at = self._key_at
        count = self.count
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            if key_at(mid) < user_key:
                lo = mid + 1
            else:
                hi = mid
        if lo < count and key_at(lo) == user_key:
            base, offsets, records_end = self.base, self.offsets, self.records_end
            start = base + offsets[lo]
            record, end = Record.decode_from(self.buf, start, records_end, base)
            lo += 1
            if end != (base + offsets[lo] if lo < count else records_end):
                raise CorruptionError(
                    f"record at offset {start - base} ends at {end - base}, "
                    "not at the next restart offset"
                )
            return record
        return None

    def records(self) -> list[Record]:
        """The full decoded record list (memoized)."""
        records = self._records
        if records is None:
            buf, base, offsets, records_end = self.buf, self.base, self.offsets, self.records_end
            records = []
            offset = base
            decode_from = Record.decode_from
            for index in range(self.count):
                if offset != base + offsets[index]:
                    raise CorruptionError(
                        f"restart offset mismatch at record {index}: "
                        f"{offsets[index]} != {offset - base}"
                    )
                record, offset = decode_from(buf, offset, records_end, base)
                records.append(record)
            if offset != records_end:
                raise CorruptionError(
                    f"trailing garbage in data block: {records_end - offset} bytes"
                )
            self._records = records
        return records


def decode_block(buf: bytes) -> list[Record]:
    """Parse a serialized data block back into its record list."""
    return DataBlock(buf).records()


def extend_records_from(
    buf: bytes, base: int, length: int, out: list[Record]
) -> None:
    """Append all records of the block at ``buf[base : base + length]``:
    :meth:`DataBlock.records` of that window (the record-domain scan)."""
    out.extend(DataBlock(buf, base, length).records())


def extend_spans_from(
    buf: bytes,
    base: int,
    length: int,
    keys: list[bytes],
    seqnos: MutableSequence[int],
    kinds: MutableSequence[int],
    starts: MutableSequence[int],
    ends: MutableSequence[int],
) -> int:
    """Append each record of a block as parallel columns of encoded spans.

    The encoded-domain counterpart of :func:`extend_records_from`: walks
    the block at ``buf[base : base + length]`` and appends, per record,
    its user key (always real ``bytes``, so key comparisons work), its
    seqno and wire kind code, and the ``[start, end)`` byte span of the
    record's full encoding within ``buf`` — enough for a merge to order,
    shadow, route, and re-emit records as slices without ever building a
    :class:`Record`. All but ``keys`` may be unboxed (the merge's are:
    ``kinds`` a bytearray, the rest ``array('Q')``), storing each
    value in its 1 or 8 bytes instead of an int object. Returns the
    number of records appended.

    The walk is held against the block's own restart array: every
    record must start exactly at its restart offset, so the offsets
    start at 0 and ascend, each record ends at the next restart, and
    the last one at the end of the record region.
    """
    end_of_block = base + length
    if length < _COUNT.size or end_of_block > len(buf):
        raise CorruptionError("truncated data block")
    (count,) = _COUNT.unpack_from(buf, end_of_block - _COUNT.size)
    records_end = end_of_block - _COUNT.size - count * _OFFSET.size
    if records_end < base:
        raise CorruptionError(
            f"truncated restart array: {count} records, {length} bytes"
        )
    unpack_header = _REC_HEADER.unpack_from
    header_size = _REC_HEADER.size
    # Bound methods: this loop runs once per record of every compaction
    # input, so per-iteration attribute lookups are measurable against
    # the little real work it does.
    keys_append = keys.append
    seqnos_append = seqnos.append
    kinds_append = kinds.append
    starts_append = starts.append
    ends_append = ends.append
    offset = base
    for restart in restart_offsets(buf, records_end, end_of_block - _COUNT.size):
        if offset != base + restart:
            raise CorruptionError(
                f"restart offset {restart} does not match the record at {offset - base}"
            )
        if offset + header_size > records_end:
            raise CorruptionError(f"truncated record header at offset {offset}")
        key_len, value_len, kind, seqno = unpack_header(buf, offset)
        if kind > 1:
            raise CorruptionError(f"bad record kind {kind} at offset {offset}")
        if seqno > MAX_SEQNO:
            raise CorruptionError(f"seqno out of range at offset {offset}: {seqno}")
        start = offset
        key_start = offset + header_size
        key_end = key_start + key_len
        offset = key_end + value_len
        if offset > records_end:
            raise CorruptionError(f"truncated record body at offset {start}")
        keys_append(buf[key_start:key_end])
        seqnos_append(seqno)
        kinds_append(kind)
        starts_append(start)
        ends_append(offset)
    if offset != records_end:
        raise CorruptionError(
            f"trailing garbage in data block: {records_end - offset} bytes"
        )
    return count


def search_block(records: list[Record], user_key: bytes) -> Record | None:
    """Find the newest record for ``user_key`` in a decoded record list.

    Records are in internal order (key asc, seqno desc), so the first
    match by user key is the newest version within the block.
    """
    lo, hi = 0, len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid].user_key < user_key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(records) and records[lo].user_key == user_key:
        return records[lo]
    return None
