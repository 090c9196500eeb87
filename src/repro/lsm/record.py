"""Internal record representation and ordering.

Every write is versioned with a monotonically increasing sequence number
and a kind (PUT or DELETE). The LSM's consistency guarantee — readers see
the newest committed version — rests on the *internal key order*: records
sort by user key ascending, then by sequence number **descending**, so a
merge over multiple sources always yields the newest version of a key
first.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import CorruptionError


class ValueKind(enum.IntEnum):
    """Record type tag; DELETE records are tombstones."""

    DELETE = 0
    PUT = 1


#: Largest sequence number; used to build seek keys that sort before all
#: versions of a user key (because seqnos sort descending internally).
MAX_SEQNO = (1 << 56) - 1

_HEADER = struct.Struct("<HIBQ")  # key_len, value_len, kind, seqno
_HEADER_SIZE = _HEADER.size
_UNPACK_HEADER = _HEADER.unpack_from
#: Wire code -> enum member. Indexing this tuple is ~6x cheaper than the
#: ``ValueKind(kind)`` enum call on the block-decode hot path.
_KIND_BY_CODE = (ValueKind.DELETE, ValueKind.PUT)
#: Allocator used by :meth:`Record.decode_from` to build records without
#: re-running ``__post_init__`` validation (the wire fields are already
#: range-checked during decode).
_NEW_RECORD = object.__new__


@dataclass(slots=True)
class Record:
    """One versioned key-value record.

    ``slots=True`` matters for throughput: records are the unit of work in
    block decode, merge, and compaction, and slot access avoids the
    per-instance ``__dict__`` lookup on the hot attribute reads
    (``user_key``/``seqno``) those paths hammer. The class is not frozen
    — frozen dataclasses route construction through
    ``object.__setattr__``, roughly tripling the cost of the ~60k Record
    constructions a smoke run performs — but instances are immutable by
    convention: nothing in the engine mutates a record after creation.
    """

    user_key: bytes
    seqno: int
    kind: ValueKind
    value: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.seqno <= MAX_SEQNO:
            raise ValueError(f"seqno out of range: {self.seqno}")
        if len(self.user_key) > 0xFFFF:
            raise ValueError(f"key too long: {len(self.user_key)} bytes")

    @property
    def is_tombstone(self) -> bool:
        return self.kind == ValueKind.DELETE

    def internal_sort_key(self) -> tuple[bytes, int]:
        """Sort key: user key ascending, then seqno descending."""
        return (self.user_key, MAX_SEQNO - self.seqno)

    def encoded_size(self) -> int:
        return _HEADER.size + len(self.user_key) + len(self.value)

    def encode(self) -> bytes:
        """Serialize to the on-"disk" wire format."""
        return (
            _HEADER.pack(len(self.user_key), len(self.value), int(self.kind), self.seqno)
            + self.user_key
            + self.value
        )

    @staticmethod
    def decode_from(
        buf: bytes, offset: int, limit: int | None = None, base: int = 0
    ) -> tuple["Record", int]:
        """Decode one record at ``offset``; returns (record, next_offset).

        The record must end by ``limit`` (default ``len(buf)``); error
        messages name offsets relative to ``base``, so a block decoded
        in place inside a file reports block-relative positions.
        """
        if limit is None:
            limit = len(buf)
        if offset + _HEADER_SIZE > limit:
            raise CorruptionError(f"truncated record header at offset {offset - base}")
        key_len, value_len, kind, seqno = _UNPACK_HEADER(buf, offset)
        start = offset + _HEADER_SIZE
        end = start + key_len + value_len
        if end > limit:
            raise CorruptionError(f"truncated record body at offset {offset - base}")
        if kind > 1:
            raise CorruptionError(f"bad record kind {kind} at offset {offset - base}")
        if seqno > MAX_SEQNO:
            raise CorruptionError(f"seqno out of range at offset {offset - base}: {seqno}")
        key_end = start + key_len
        user_key = buf[start:key_end]
        value = buf[key_end:end]
        # Fields already validated above (kind, seqno; key_len is a u16 so
        # it cannot exceed the key-length cap), so the record is assembled
        # directly instead of through the dataclass __init__/__post_init__
        # pair — measurably cheaper at ~40k decodes per smoke run.
        record = _NEW_RECORD(Record)
        record.user_key = user_key
        record.seqno = seqno
        record.kind = _KIND_BY_CODE[kind]
        record.value = value
        return record, end


#: Fixed per-record wire overhead; exported so hot paths can compute
#: ``encoded_size`` without a method call on a Record in hand.
RECORD_HEADER_SIZE = _HEADER_SIZE
#: ``(key_len, value_len, kind, seqno)`` of the record encoded at
#: ``(buf, offset)``; exported beside the size so an encoded-domain
#: walker (the scan cursor) reads a header without building a Record.
unpack_record_header = _UNPACK_HEADER

_PUT = ValueKind.PUT


def make_put_record(user_key: bytes, seqno: int, value: bytes) -> Record:
    """Build a PUT record without the dataclass ``__init__`` walk.

    The write fast lane constructs one record per operation; seqnos are
    engine-assigned (always in range), so only the user-supplied key
    length needs checking.
    """
    if len(user_key) > 0xFFFF:
        raise ValueError(f"key too long: {len(user_key)} bytes")
    record = _NEW_RECORD(Record)
    record.user_key = user_key
    record.seqno = seqno
    record.kind = _PUT
    record.value = value
    return record
