"""The in-memory write buffer.

Writes land in the memtable first; when it reaches its size budget the DB
flushes it to an L0 SSTable. The memtable keeps the *latest* version per
user key (the simulator exposes no snapshot reads, so shadowed in-memory
versions would never be observable; the flushed SSTable therefore carries
exactly one version per key, as a RocksDB flush with default settings
effectively does after its own dedup).

The container is a plain dict plus a memoized sorted-key array. The
simulator's access pattern favours this over an ordered index such as a
skiplist: the write path needs hashed point access (O(1) vs an
O(log n) pointer chase per insert), while sorted order is only demanded
in bulk — at flush, or by a scan — where one C-level ``sorted`` over the
keys amortizes to far less than per-insert ordering. Updates to an
existing key never invalidate the memo; only a brand-new key does.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from repro.lsm.iterators import keyed_records
from repro.lsm.record import Record


class Memtable:
    """Hash-backed buffer of the newest un-flushed writes."""

    __slots__ = ("_records", "_sorted_keys", "_approx_bytes")

    def __init__(self) -> None:
        self._records: dict[bytes, Record] = {}
        #: Ascending user keys, memoized; None when a new key was added
        #: since the last sort.
        self._sorted_keys: list[bytes] | None = []
        self._approx_bytes = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def approximate_bytes(self) -> int:
        """Serialized size estimate used for the flush trigger."""
        return self._approx_bytes

    def add(self, record: Record) -> None:
        """Insert a PUT or DELETE record, replacing any older version."""
        records = self._records
        key = record.user_key
        previous = records.get(key)
        if previous is not None:
            if previous.seqno >= record.seqno:
                raise ValueError(
                    f"non-monotonic write to {record.user_key!r}: "
                    f"seqno {record.seqno} after {previous.seqno}"
                )
            self._approx_bytes -= previous.encoded_size()
        else:
            self._sorted_keys = None
        records[key] = record
        self._approx_bytes += record.encoded_size()

    def _ordered_keys(self) -> list[bytes]:
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = sorted(self._records)
        return keys

    def get(self, user_key: bytes) -> Record | None:
        """Return the newest record for ``user_key`` (may be a tombstone)."""
        return self._records.get(user_key)

    def scan_from(self, user_key: bytes) -> Iterator[Record]:
        """Records with user key >= ``user_key`` in ascending order."""
        keys = self._ordered_keys()
        records = self._records
        for index in range(bisect_left(keys, user_key), len(keys)):
            yield records[keys[index]]

    def records(self) -> Iterator[Record]:
        """All records in ascending user-key order (flush order)."""
        records = self._records
        for key in self._ordered_keys():
            yield records[key]

    def smallest_key(self) -> bytes | None:
        keys = self._ordered_keys()
        return keys[0] if keys else None

    def largest_key(self) -> bytes | None:
        keys = self._ordered_keys()
        return keys[-1] if keys else None


class MemtableCursor:
    """:meth:`Memtable.scan_from` behind the scan-cursor protocol.

    The range-scan merge drives every source through the protocol
    :class:`~repro.lsm.sstable.RunCursor` documents (``advance()``,
    ``key`` / ``inv`` / ``kind``, ``value()``, ``latency``). The
    memtable's records are decorated by the merge specification's own
    :func:`~repro.lsm.iterators.keyed_records`, so its heap entries are
    the ones the streaming merge would compare; it is DRAM-resident and
    un-charged, so its ``latency`` is a constant 0.0.
    """

    __slots__ = ("key", "inv", "kind", "_value", "_keyed")

    latency = 0.0

    def __init__(self, memtable: Memtable, start_key: bytes) -> None:
        self._keyed = keyed_records(memtable.scan_from(start_key))

    def advance(self) -> bool:
        item = next(self._keyed, None)
        if item is None:
            return False
        self.key, self.inv, record = item
        self.kind = record.kind
        self._value = record.value
        return True

    def value(self) -> bytes:
        return self._value
