"""Tests for SSTable build and read paths."""

import random
import struct
from array import array

import pytest

from repro.common import KIB, MIB, SimClock
from repro.lsm.block_cache import BlockCache, BlockType
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import (
    UNTRACKED_CLOCK_VALUE,
    RunCursor,
    SSTableBuilder,
    decode_index,
    encode_index,
)
from repro.storage import NVM_SPEC, StorageBackend, StorageTier


def put(key, seqno, value=b"v" * 50):
    return Record(key, seqno, ValueKind.PUT, value)


def make_env():
    clock = SimClock()
    backend = StorageBackend(clock)
    tier = StorageTier("nvm", NVM_SPEC, 64 * MIB, clock)
    cache = BlockCache(256 * KIB)
    return backend, tier, cache


def build_table(backend, tier, records, **kwargs):
    defaults = dict(block_bytes=512, target_file_bytes=16 * KIB)
    defaults.update(kwargs)
    builder = SSTableBuilder(backend, tier, **defaults)
    for record in records:
        builder.add(record)
    table = builder.finish()
    return table


class TestIndexCodec:
    def test_round_trip(self):
        keys, offsets, lengths = decode_index(encode_index([b"abc", b"xyz"], [0, 100], [100, 250]))
        assert keys == [b"abc", b"xyz"]
        assert offsets == array("Q", [0, 100]) and lengths == array("I", [100, 250])

    def test_empty_index(self):
        assert decode_index(encode_index([], [], [])) == ([], array("Q"), array("I"))

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_equal_a_struct_decode(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(50)
        keys = sorted(rng.randbytes(rng.randrange(30)) for _ in range(n))
        buf = encode_index(
            keys, [rng.randrange(2**64) for _ in keys], [rng.randrange(2**32) for _ in keys]
        )
        (count,) = struct.unpack_from("<I", buf, 0)
        expected, pos = [], 4
        for _ in range(count):
            key_len, offset, length = struct.unpack_from("<HQI", buf, pos)
            pos += 14
            expected.append((buf[pos : pos + key_len], offset, length))
            pos += key_len
        for source in (buf, memoryview(buf)):  # a whole-file or a partial read
            got_keys, offsets, lengths = decode_index(source)
            assert (offsets.typecode, lengths.typecode) == ("Q", "I")
            assert all(type(key) is bytes for key in got_keys)
            assert list(zip(got_keys, offsets, lengths)) == expected

    def test_a_built_table_keeps_its_file_index_as_columns(self):
        backend, tier, _ = make_env()
        table = build_table(backend, tier, [put(f"k{i:04d}".encode(), i + 1) for i in range(300)])
        start = table.index_offset
        on_file = decode_index(table.file.data[start : start + table.index_length])
        assert on_file == (table._index_keys, table._index_offsets, table._index_lengths)
        assert len(on_file[0]) > 1
        assert table.block_offsets() == [table.filter_offset, start, *on_file[1]]


class TestSSTableBuild:
    def test_metadata(self):
        backend, tier, _ = make_env()
        records = [put(f"k{i:04d}".encode(), i + 1) for i in range(100)]
        table = build_table(backend, tier, records)
        assert table.smallest_key == b"k0000"
        assert table.largest_key == b"k0099"
        assert table.entry_count == 100
        assert table.tombstone_count == 0
        assert table.size_bytes == table.file.size

    def test_empty_finish_rejected(self):
        backend, tier, _ = make_env()
        builder = SSTableBuilder(backend, tier, block_bytes=512, target_file_bytes=4096)
        with pytest.raises(ValueError):
            builder.finish()

    def test_tombstones_counted(self):
        backend, tier, _ = make_env()
        records = [put(b"a", 2), Record(b"b", 1, ValueKind.DELETE)]
        table = build_table(backend, tier, records)
        assert table.tombstone_count == 1

    def test_should_finish_at_target(self):
        backend, tier, _ = make_env()
        builder = SSTableBuilder(backend, tier, block_bytes=512, target_file_bytes=1024)
        i = 0
        while not builder.should_finish():
            builder.add(put(f"k{i:06d}".encode(), i + 1))
            i += 1
        assert builder.estimated_bytes >= 1024

    def test_popularity_score_from_clock_values(self):
        backend, tier, _ = make_env()
        clock_values = {b"hot": 3, b"warm": 2}

        def clock_fn(key):
            return clock_values.get(key, UNTRACKED_CLOCK_VALUE)

        records = [put(b"cold", 1), put(b"hot", 2), put(b"warm", 3)]
        table = build_table(backend, tier, records, clock_values_fn=lambda keys: map(clock_fn, keys))
        # (-1)^3 + 3^3 + 2^3 = -1 + 27 + 8 = 34
        assert table.popularity_score == pytest.approx(34.0)

    def test_score_zero_without_tracker(self):
        backend, tier, _ = make_env()
        table = build_table(backend, tier, [put(b"a", 1)])
        assert table.popularity_score == 0.0


class TestSSTableRead:
    def setup_method(self):
        self.backend, self.tier, self.cache = make_env()
        self.records = [put(f"k{i:04d}".encode(), i + 1, b"x" * 60) for i in range(200)]
        self.table = build_table(self.backend, self.tier, self.records)

    def test_get_every_key(self):
        for record in self.records:
            hit, latency, filtered = self.table.get(record.user_key, self.cache)
            assert hit == record
            assert latency > 0
            assert not filtered

    def test_get_absent_key_is_usually_filtered(self):
        filtered_count = 0
        for i in range(100):
            hit, _, filtered = self.table.get(f"absent{i}".encode(), self.cache)
            assert hit is None
            filtered_count += filtered
        assert filtered_count > 90  # bloom catches nearly all

    def test_cached_get_is_cheaper(self):
        key = self.records[50].user_key
        _, cold, _ = self.table.get(key, self.cache)
        _, warm, _ = self.table.get(key, self.cache)
        assert warm < cold

    def test_cache_counts_filter_index_data(self):
        # A freshly built table has its filter and index resident in
        # table memory (like RocksDB's table cache), so those accesses
        # count as hits; the data block is a genuine miss.
        self.table.get(self.records[0].user_key, self.cache)
        assert self.cache.stats.hits.get(BlockType.FILTER) == 1
        assert self.cache.stats.hits.get(BlockType.INDEX) == 1
        assert self.cache.stats.misses.get(BlockType.DATA) == 1

    def test_filter_loaded_from_device_once_when_not_resident(self):
        # Simulate a reopened table: drop the resident copies.
        self.table._bloom = None
        self.table._index_keys = self.table._index_offsets = self.table._index_lengths = None
        self.table.get(self.records[0].user_key, self.cache)
        assert self.cache.stats.misses.get(BlockType.FILTER) == 1
        assert self.cache.stats.misses.get(BlockType.INDEX) == 1
        # Second access is served from table memory.
        self.table.get(self.records[1].user_key, self.cache)
        assert self.cache.stats.misses.get(BlockType.FILTER) == 1
        assert self.cache.stats.hits.get(BlockType.FILTER) == 1

    def probe_keys(self):
        # Present keys (twice over, so data blocks hit), bloom-filtered
        # absentees, and keys past the last index entry.
        keys = [record.user_key for record in self.records[::7]] * 2
        keys += [f"absent{i}".encode() for i in range(20)]
        keys += [b"zzz", b"k9999"]
        return keys

    def test_probe_conserves_lookups_per_block_type(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        self.cache.bind_observability(registry)
        lookups = dict.fromkeys(BlockType, 0)
        index_keys = self.table._index_keys
        for key in self.probe_keys():
            _, _, filtered = self.table.get(key, self.cache)
            lookups[BlockType.FILTER] += 1
            if filtered:
                continue
            lookups[BlockType.INDEX] += 1
            if key <= index_keys[-1]:
                lookups[BlockType.DATA] += 1
        stats = self.cache.stats
        assert lookups[BlockType.DATA] > stats.misses[BlockType.DATA] > 0
        for block_type in BlockType:
            hits = stats.hits.get(block_type, 0)
            misses = stats.misses.get(block_type, 0)
            assert hits + misses == lookups[block_type], block_type
            assert registry.value("cache.hits", type=block_type.value) == hits
            assert registry.value("cache.misses", type=block_type.value) == misses

    @pytest.mark.parametrize("resident", [True, False])
    def test_attributed_get_matches_plain_get(self, resident):
        # An attributed read and a plain one on the same table, two
        # caches: results, latencies, stats and LRU order must agree,
        # and the attributed parts must add up to the latency.
        from repro.obs.attribution import OpContext, attributing

        twin = build_table(self.backend, self.tier, self.records)
        attributed_cache = BlockCache(256 * KIB)
        if not resident:  # as after a reopen: filter and index are cold
            for table in (self.table, twin):
                table._bloom = table._index_keys = None
                table._index_offsets = table._index_lengths = None
        for key in self.probe_keys():
            ctx = OpContext("read")
            plain = self.table.get(key, self.cache)
            with attributing(ctx):
                attributed = twin.get(key, attributed_cache)
            assert attributed == plain, key
            assert sum(ctx.parts.values()) == pytest.approx(plain[1])
        assert attributed_cache.stats.hits == self.cache.stats.hits
        assert attributed_cache.stats.misses == self.cache.stats.misses
        assert [offset for _, offset in attributed_cache._entries] == [
            offset for _, offset in self.cache._entries
        ]

    def test_overlaps(self):
        assert self.table.overlaps(b"k0050", b"k0060")
        assert self.table.overlaps(b"a", b"z")
        assert not self.table.overlaps(b"l", b"z")
        assert not self.table.overlaps(b"a", b"b")

    def test_iter_from(self):
        items = []
        for record, _ in self.table.iter_from(b"k0190", self.cache):
            items.append(record.user_key)
        assert items == [f"k{i:04d}".encode() for i in range(190, 200)]

    def test_iter_from_start(self):
        count = sum(1 for _ in self.table.iter_from(b"", self.cache))
        assert count == 200

    def test_run_cursor_is_lazy_and_stays_exhausted(self):
        stats = self.cache.stats
        cursor = RunCursor((self.table,), 0, b"k0150", self.cache)
        assert stats.hits == {} and stats.misses == {}  # nothing read yet
        seen, blocks_at_step = [], []
        while cursor.advance():
            seen.append((cursor.key, cursor.kind, cursor.value()))
            blocks_at_step.append((stats.misses.get(BlockType.DATA, 0), cursor.latency > 0))
        assert seen == [(r.user_key, 1, r.value) for r in self.records[150:]]
        # A step is charged exactly when it fetched a block, and blocks
        # are fetched one at a time, each when the walk first needs it.
        fetched = [step for step, (_, charged) in enumerate(blocks_at_step) if charged]
        assert fetched[0] == 0 and len(fetched) > 2
        assert [blocks for blocks, _ in blocks_at_step] == [
            sum(1 for first in fetched if first <= step) for step in range(len(seen))
        ]
        assert not cursor.advance() and not cursor.advance()
        assert stats.misses[BlockType.DATA] == len(fetched)

    def test_read_all_records(self):
        assert self.table.read_all_records() == self.records

    def test_multiple_versions_newest_wins(self):
        backend, tier, cache = make_env()
        records = [put(b"k", 9, b"new"), put(b"k", 3, b"old")]
        table = build_table(backend, tier, records)
        hit, _, _ = table.get(b"k", cache)
        assert hit.value == b"new"
        assert hit.seqno == 9
