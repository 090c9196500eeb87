"""Tests for the memtable."""

import pytest

from repro.lsm.memtable import Memtable
from repro.lsm.record import Record, ValueKind


def put(key, seqno, value=b"v"):
    return Record(key, seqno, ValueKind.PUT, value)


def tombstone(key, seqno):
    return Record(key, seqno, ValueKind.DELETE)


class TestMemtable:
    def test_empty(self):
        mem = Memtable()
        assert len(mem) == 0
        assert mem.approximate_bytes == 0
        assert mem.get(b"k") is None
        assert mem.smallest_key() is None

    def test_add_and_get(self):
        mem = Memtable()
        mem.add(put(b"k", 1, b"hello"))
        record = mem.get(b"k")
        assert record is not None
        assert record.value == b"hello"

    def test_newer_version_replaces(self):
        mem = Memtable()
        mem.add(put(b"k", 1, b"old"))
        mem.add(put(b"k", 2, b"new"))
        assert len(mem) == 1
        assert mem.get(b"k").value == b"new"

    def test_non_monotonic_write_rejected(self):
        mem = Memtable()
        mem.add(put(b"k", 5))
        with pytest.raises(ValueError):
            mem.add(put(b"k", 5))
        with pytest.raises(ValueError):
            mem.add(put(b"k", 4))

    def test_tombstone_is_returned(self):
        mem = Memtable()
        mem.add(put(b"k", 1))
        mem.add(tombstone(b"k", 2))
        record = mem.get(b"k")
        assert record is not None
        assert record.is_tombstone

    def test_size_tracks_replacement(self):
        mem = Memtable()
        mem.add(put(b"k", 1, b"x" * 100))
        size_after_first = mem.approximate_bytes
        mem.add(put(b"k", 2, b"y" * 10))
        assert mem.approximate_bytes < size_after_first

    def test_records_sorted_by_key(self):
        mem = Memtable()
        for i, key in enumerate([b"c", b"a", b"b"]):
            mem.add(put(key, i + 1))
        assert [r.user_key for r in mem.records()] == [b"a", b"b", b"c"]

    def test_scan_from(self):
        mem = Memtable()
        for i, key in enumerate([b"a", b"c", b"e"]):
            mem.add(put(key, i + 1))
        assert [r.user_key for r in mem.scan_from(b"b")] == [b"c", b"e"]

    def test_smallest_largest(self):
        mem = Memtable()
        for i, key in enumerate([b"m", b"a", b"z"]):
            mem.add(put(key, i + 1))
        assert mem.smallest_key() == b"a"
        assert mem.largest_key() == b"z"
