"""Tests for data block building, decoding and search."""

import random
import struct
import sys

import pytest

from repro.errors import CorruptionError
from repro.lsm.block import (
    DataBlock,
    DataBlockBuilder,
    decode_block,
    restart_offsets,
    search_block,
)
from repro.lsm.record import Record, ValueKind


def put(key, seqno, value=b"v"):
    return Record(key, seqno, ValueKind.PUT, value)


class TestDataBlockBuilder:
    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            DataBlockBuilder(0)

    def test_round_trip(self):
        builder = DataBlockBuilder(4096)
        records = [put(b"a", 3), put(b"b", 2), put(b"c", 1)]
        for record in records:
            builder.add(record)
        assert decode_block(builder.finish()) == records

    def test_rejects_out_of_order_keys(self):
        builder = DataBlockBuilder(4096)
        builder.add(put(b"b", 1))
        with pytest.raises(ValueError):
            builder.add(put(b"a", 2))

    def test_rejects_duplicate_internal_key(self):
        builder = DataBlockBuilder(4096)
        builder.add(put(b"a", 1))
        with pytest.raises(ValueError):
            builder.add(put(b"a", 1))

    def test_same_key_descending_seqno_allowed(self):
        builder = DataBlockBuilder(4096)
        builder.add(put(b"a", 5))
        builder.add(put(b"a", 3))  # older version after newer: valid internal order
        records = decode_block(builder.finish())
        assert [r.seqno for r in records] == [5, 3]

    def test_is_full_threshold(self):
        builder = DataBlockBuilder(64)
        builder.add(put(b"key1", 1, b"x" * 64))
        assert builder.is_full()

    def test_finish_resets(self):
        builder = DataBlockBuilder(4096)
        builder.add(put(b"a", 1))
        builder.finish()
        assert len(builder) == 0
        assert builder.last_key is None

    def test_first_last_key(self):
        builder = DataBlockBuilder(4096)
        builder.add(put(b"a", 2))
        builder.add(put(b"b", 1))
        assert builder.last_key == b"b"
        assert decode_block(builder.finish())[0].user_key == b"a"


class TestDecodeBlock:
    def test_truncated_fails(self):
        with pytest.raises(CorruptionError):
            decode_block(b"\x01")

    def test_trailing_garbage_fails(self):
        builder = DataBlockBuilder(4096)
        builder.add(put(b"a", 1))
        payload = builder.finish() + b"junk"
        with pytest.raises(CorruptionError):
            decode_block(payload)

    def test_empty_block(self):
        builder = DataBlockBuilder(4096)
        assert decode_block(builder.finish()) == []


class TestSearchBlock:
    def _records(self):
        return [put(b"b", 9), put(b"b", 4), put(b"d", 2), put(b"f", 7)]

    def test_finds_existing_key(self):
        assert search_block(self._records(), b"d").seqno == 2

    def test_returns_newest_version(self):
        assert search_block(self._records(), b"b").seqno == 9

    def test_absent_key_between(self):
        assert search_block(self._records(), b"c") is None

    def test_absent_key_before_and_after(self):
        assert search_block(self._records(), b"a") is None
        assert search_block(self._records(), b"z") is None

    def test_empty_block_returns_none(self):
        assert search_block([], b"a") is None


class TestDataBlock:
    """The lazy decoded-side handle over the restart-trailer format."""

    def _build(self, n=8):
        builder = DataBlockBuilder(1 << 20)
        records = [put(f"key{i:03d}".encode(), i + 1, b"v" * 20) for i in range(n)]
        for record in records:
            builder.add(record)
        return records, builder.finish()

    def test_estimated_bytes_matches_encoding_exactly(self):
        for count in (0, 1, 7):
            builder = DataBlockBuilder(1 << 20)
            for i in range(count):
                builder.add(put(f"k{i}".encode(), i + 1))
            estimate = builder.estimated_bytes
            assert estimate == len(builder.finish())

    def test_trailer_parse_exposes_offsets(self):
        records, buf = self._build(4)
        block = DataBlock(buf)
        assert len(block) == 4
        assert block.offsets[0] == 0
        sizes = [record.encoded_size() for record in records]
        assert list(block.offsets) == [sum(sizes[:i]) for i in range(4)]

    def test_search_matches_full_decode_search(self):
        records, buf = self._build(8)
        for record in records:
            assert DataBlock(buf).search(record.user_key) == search_block(
                decode_block(buf), record.user_key
            )
        assert DataBlock(buf).search(b"key999") is None
        assert DataBlock(buf).search(b"aaa") is None

    def test_search_decodes_only_the_candidate(self):
        # Corrupt the *last* record's kind byte: a point search for an
        # earlier key must still succeed (it never decodes the corrupt
        # record; key peeks don't touch the kind byte), while a search
        # that lands on it — and any full decode — must raise.
        records, buf = self._build(8)
        block = DataBlock(buf)
        corrupt = bytearray(buf)
        corrupt[block.offsets[-1] + 6] = 0x7F  # kind byte offset in header
        corrupt = bytes(corrupt)
        assert DataBlock(corrupt).search(b"key000") == records[0]
        with pytest.raises(CorruptionError):
            DataBlock(corrupt).search(records[-1].user_key)
        with pytest.raises(CorruptionError):
            decode_block(corrupt)

    def test_records_are_memoized(self):
        _, buf = self._build(4)
        block = DataBlock(buf)
        assert block.records() is block.records()

    def test_search_uses_materialized_records_when_present(self):
        records, buf = self._build(8)
        block = DataBlock(buf)
        block.records()
        for record in records:
            assert block.search(record.user_key) == record

    def test_bad_restart_offsets_detected(self):
        _, buf = self._build(4)
        # Truncate mid-trailer: count still claims 4 records.
        with pytest.raises(CorruptionError):
            DataBlock(buf[:10] + buf[-2:])

    def test_search_newest_version_wins(self):
        builder = DataBlockBuilder(1 << 20)
        builder.add(put(b"dup", 9, b"new"))
        builder.add(put(b"dup", 3, b"old"))
        block = DataBlock(builder.finish())
        assert block.search(b"dup").value == b"new"


class TestRestartOffsetColumn:
    """``DataBlock.offsets`` is an unboxed copy of the trailer's u32 run."""

    @pytest.mark.parametrize("seed", range(6))
    def test_offsets_equal_a_struct_decode(self, seed):
        rng = random.Random(seed)
        builder = DataBlockBuilder(1 << 20)
        for i in range(rng.randrange(60)):
            builder.add(put(f"k{i:05d}".encode(), i + 1, rng.randbytes(rng.randrange(300))))
        payload = builder.finish()
        # A window with neighbours on both sides, as a fetched block is.
        head = rng.randbytes(rng.randrange(1, 50))
        block = DataBlock(head + payload + rng.randbytes(9), len(head), len(payload))
        expected = struct.unpack_from(f"<{block.count}I", block.buf, block.records_end)
        assert block.offsets.typecode == "I"
        assert tuple(block.offsets) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_a_host_of_either_byte_order_reads_the_wire_values(self, seed):
        rng = random.Random(seed)
        values = [rng.randrange(2**32) for _ in range(rng.randrange(1, 40))]
        head = rng.randbytes(rng.randrange(8))
        wire = head + struct.pack(f"<{len(values)}I", *values)
        assert list(restart_offsets(wire, len(head), len(wire))) == values
        # What a host of the other order reads natively from the wire is
        # what this host reads with every 4-byte word reversed.
        foreign = head + b"".join(
            wire[at : at + 4][::-1] for at in range(len(head), len(wire), 4)
        )
        other = "little" if sys.byteorder == "big" else "big"
        assert list(restart_offsets(foreign, len(head), len(wire), other)) == values
