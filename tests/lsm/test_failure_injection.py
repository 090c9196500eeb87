"""Failure injection: corruption, capacity exhaustion, and lock stalls.

These tests flip bits in on-"disk" structures and drive the engine into
resource-exhaustion corners, asserting that failures surface as typed
errors instead of silent wrong answers.
"""

import struct

import pytest

from repro.common import KIB, MIB, SimClock
from repro.errors import CapacityError, CorruptionError
from repro.lsm.block import decode_block
from repro.lsm.block_cache import BlockCache
from repro.lsm.bloom import BloomFilter
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTable, SSTableBuilder, decode_index
from repro.storage import NVM_SPEC, StorageBackend, StorageTier


def build_table(n=50):
    clock = SimClock()
    backend = StorageBackend(clock)
    tier = StorageTier("nvm", NVM_SPEC, 64 * MIB, clock)
    builder = SSTableBuilder(backend, tier, block_bytes=512, target_file_bytes=1 << 30)
    for i in range(n):
        builder.add(Record(f"key{i:04d}".encode(), i + 1, ValueKind.PUT, b"v" * 30))
    table = builder.finish()
    return backend, table


def corrupt(data: bytes, offset: int, new_byte: int) -> bytes:
    mutated = bytearray(data)
    mutated[offset] = new_byte
    return bytes(mutated)


class TestSSTableCorruption:
    def test_bad_footer_magic_detected_on_open(self):
        backend, table = build_table()
        file = table.file
        file.data = corrupt(file.data, len(file.data) - 1, 0x00)
        with pytest.raises(CorruptionError):
            SSTable.open(backend, file)

    def test_truncated_file_detected_on_open(self):
        backend, table = build_table()
        file = table.file
        file.data = file.data[:4]
        with pytest.raises(CorruptionError):
            SSTable.open(backend, file)

    def test_footer_claiming_impossible_sizes_detected(self):
        backend, table = build_table()
        file = table.file
        # Inflate the smallest-key length in the footer tail beyond the file.
        tail_offset = len(file.data) - 8  # smallest_len field of the tail
        file.data = corrupt(file.data, tail_offset, 0xFF)
        file.data = corrupt(file.data, tail_offset + 1, 0xFF)
        with pytest.raises(CorruptionError):
            SSTable.open(backend, file)

    def test_corrupt_data_block_detected_on_decode(self):
        backend, table = build_table()
        # Destroy the kind byte of the first record in the first block
        # (header layout: key_len u16, value_len u32, kind u8, seqno u64).
        payload = bytearray(table.file.data)
        payload[6] = 0x7F
        table.file.data = bytes(payload)
        cache = BlockCache(64 * KIB)
        with pytest.raises(CorruptionError):
            table.get(b"key0000", cache)

    def test_reopened_table_reads_clean_data(self):
        backend, table = build_table()
        reopened = SSTable.open(backend, table.file)
        cache = BlockCache(64 * KIB)
        hit, _, _ = reopened.get(b"key0007", cache)
        assert hit is not None
        assert hit.value == b"v" * 30


class TestScanCorruption:
    """Faults inside a block a range scan walks surface from ``db.scan``.

    The scan cursor reads records in the encoded domain, one header at
    a time; it must apply to every record it lands on the checks a full
    block decode would (kind, seqno range, framing against the restart
    offsets and the record region).
    """

    def _db_and_block(self):
        from repro.lsm import DBOptions, LsmDB
        from repro.lsm.block import DataBlock

        db = LsmDB.create("NNNTQ", DBOptions(block_bytes=512))
        for i in range(40):
            db.put(f"key{i:04d}".encode(), b"v" * 30)
        db.flush()
        (table,) = db.manifest.files(0)
        assert table._index_offsets[0] == 0  # block offsets below are file offsets
        block = DataBlock(table.file.data[: table._index_lengths[0]])
        assert 4 < block.count < 40  # the scan below crosses into block 2
        assert len(db.scan(b"", 40).items) == 40  # clean before the fault
        db.cache.clear()
        return db, table.file, block

    # Header layout: key_len u16 | value_len u32 | kind u8 | seqno u64.
    @pytest.mark.parametrize(
        "fault",
        ["kind_byte", "seqno_above_max", "end_past_next_restart", "end_past_record_region"],
    )
    def test_fault_in_a_walked_block_raises(self, fault):
        db, file, block = self._db_and_block()
        third = block.offsets[2]
        last = block.offsets[-1]
        if fault == "kind_byte":
            file.data = corrupt(file.data, third + 6, 0x7F)
        elif fault == "seqno_above_max":
            # The top byte of the u64: any non-zero value exceeds 2**56 - 1.
            file.data = corrupt(file.data, third + 14, 0x01)
        elif fault == "end_past_next_restart":
            # value_len + 1: the record now ends one byte into its successor.
            file.data = corrupt(file.data, third + 2, file.data[third + 2] + 1)
        else:
            # The block's last record claims a value reaching into the trailer.
            file.data = corrupt(file.data, last + 2, file.data[last + 2] + 1)
        with pytest.raises(CorruptionError):
            db.scan(b"", 40)


#: Faults injected into one record (or the trailer) of a middle block.
WINDOW_FAULTS = ["key_len_too_long", "value_len_plus_4", "value_len_plus_5000", "count_plus_1"]


class TestWindowCorruption:
    """A data block is decoded in place, as a window over its file's bytes.

    The middle block of a multi-block file has a nonzero base and
    neighbours on both sides, so a length that runs past the window
    reaches real bytes of the next block. Every reader bounds itself by
    the window's record region — a point read, a scan that seeks into
    the block, a scan that walks into it, and ``DataBlock.records()`` —
    so each fault raises ``CorruptionError`` naming block-relative
    offsets, and no reader returns another block's bytes.
    """

    def _db_table_block(self):
        from repro.lsm import DBOptions, LsmDB
        from repro.lsm.block import DataBlock

        db = LsmDB.create("NNNTQ", DBOptions(block_bytes=512))
        for i in range(200):
            db.put(f"key{i:04d}".encode(), b"v" * 30)
        db.flush()
        (table,) = db.manifest.files(0)
        pos = len(table._index_keys) // 2
        offset, length = table._index_offsets[pos], table._index_lengths[pos]
        # A standalone copy, for the block-relative offsets and keys.
        block = DataBlock(table.file.data[offset : offset + length])
        assert offset > 0 and 4 < block.count
        db.cache.clear()
        return db, table, pos, block

    # Header layout: key_len u16 | value_len u32 | kind u8 | seqno u64.
    def _inject(self, fault, table, pos, block, target):
        data = bytearray(table.file.data)
        offset, length = table._index_offsets[pos], table._index_lengths[pos]
        at = offset + block.offsets[target]
        if fault == "key_len_too_long":
            data[at : at + 2] = struct.pack("<H", length)  # into the next block
        elif fault == "count_plus_1":
            count_at = offset + length - 2
            data[count_at : count_at + 2] = struct.pack("<H", block.count + 1)
        else:
            (value_len,) = struct.unpack_from("<I", data, at + 2)
            extra = 4 if fault == "value_len_plus_4" else 5000
            assert at + value_len + extra < len(data)  # +5000 stays inside the file
            data[at + 2 : at + 6] = struct.pack("<I", value_len + extra)
        table.file.data = bytes(data)

    @pytest.mark.parametrize("fault", WINDOW_FAULTS)
    def test_every_reader_of_the_window_raises(self, fault):
        from repro.lsm.block import DataBlock

        db, table, pos, block = self._db_table_block()
        target = 3  # mid-block: a record on each side
        key = block._key_at(target)
        before = table._index_keys[pos - 1]
        self._inject(fault, table, pos, block, target)
        # The record-level faults name the faulted record's block offset.
        named = None if fault == "count_plus_1" else f"at offset {block.offsets[target]}"
        readers = {
            "get": lambda: db.get(key),
            "scan seek": lambda: db.scan(key, 5),
            "scan landing": lambda: db.scan(before, block.count + 5),
        }
        for name, read in readers.items():
            db.cache.clear()
            with pytest.raises(CorruptionError) as raised:
                read()
            if named is not None:
                assert named in str(raised.value), (name, str(raised.value))
        offset, length = table._index_offsets[pos], table._index_lengths[pos]
        with pytest.raises(CorruptionError):
            DataBlock(table.file.data, offset, length).records()

    def test_get_of_a_record_ending_past_its_successor_raises(self):
        # value_len + 4 on a mid-block record: the candidate decodes inside
        # the block, but ends four bytes into the next record's header.
        db, table, pos, block = self._db_table_block()
        key = block._key_at(3)
        assert db.get(key).value == b"v" * 30
        self._inject("value_len_plus_4", table, pos, block, 3)
        db.cache.clear()
        with pytest.raises(CorruptionError, match="not at the next restart offset"):
            db.get(key)


#: Faults injected into the first block of a compaction input.
INPUT_FAULTS = [
    "kind_byte",
    "seqno_above_max",
    "end_past_next_restart",
    "end_before_next_restart",
    "last_record_truncated",
    "first_offset_not_zero",
    "descending_offsets",
    "offset_out_of_range",
    "count_too_large",
    "count_too_small",
    "count_zero",
]
#: Two tiers: L0 on NVM, L1 and below on TLC.
MOVE_LAYOUT = "NTTTT"


class TestCompactionScanCorruption:
    """Faults in a compaction input surface from the job, never finish it.

    The input scan takes record spans from each block's own restart
    array, so the array is checked against the records it frames:
    offsets start at 0 and ascend inside the record region, and every
    record's header describes exactly the bytes up to the next restart
    (the last one up to the region's end). A corrupt input must raise
    ``CorruptionError`` — not ``struct.error`` or ``IndexError`` — before
    any output is installed.
    """

    def _db_table_block(self, layout="NNNTQ"):
        from repro.lsm import DBOptions, LsmDB
        from repro.lsm.block import DataBlock

        db = LsmDB.create(layout, DBOptions(block_bytes=512))
        for i in range(40):
            db.put(f"key{i:04d}".encode(), b"v" * 30)
        db.flush()
        (table,) = db.manifest.files(0)
        assert table._index_offsets[0] == 0  # block offsets below are file offsets
        block = DataBlock(table.file.data[: table._index_lengths[0]])
        assert 4 < block.count < 40
        return db, table, block, table._index_lengths[0]

    @staticmethod
    def _compact_l0(db, table):
        from repro.lsm.compaction import CompactionJob

        db.executor.execute(CompactionJob(
            "leveled", 0, 1, [table], [], table.smallest_key, table.largest_key,
        ))

    def test_clean_input_compacts(self):
        db, table, _, _ = self._db_table_block()
        self._compact_l0(db, table)
        assert db.manifest.files(0) == [] and db.manifest.file_count(1) == 1
        assert len(db.scan(b"", 40).items) == 40

    def test_clean_moved_input_is_adopted(self, adoptions):
        # The L0 -> L1 job of the two-tier layout is a one-input move
        # across the NVM/TLC boundary: the builder adopts the input.
        db, table, _, _ = self._db_table_block(MOVE_LAYOUT)
        regions = table.file.data[: table.index_offset + table.index_length]
        self._compact_l0(db, table)
        (moved,) = db.manifest.files(1)
        assert adoptions == [True] and moved.tier.name != table.tier.name
        assert moved.file.data.startswith(regions)
        assert len(db.scan(b"", 40).items) == 40

    # Header layout: key_len u16 | value_len u32 | kind u8 | seqno u64.
    # Block layout: records | u32 restart offset per record | u16 count.
    @pytest.mark.parametrize("fault", INPUT_FAULTS)
    def test_fault_in_an_input_block_raises(self, fault):
        self._assert_fault_raises(fault, "NNNTQ")

    @pytest.mark.parametrize("fault", INPUT_FAULTS)
    def test_fault_in_a_moved_input_raises(self, fault, adoptions):
        # The scan runs before a job decides to adopt its input, so the
        # move path copies no fault through: it never reaches the builder.
        self._assert_fault_raises(fault, MOVE_LAYOUT)
        assert adoptions == []

    def _assert_fault_raises(self, fault, layout):
        db, table, block, block_length = self._db_table_block(layout)
        file = table.file
        data = bytearray(file.data)
        third = block.offsets[2]
        last = block.offsets[-1]
        restarts = block.records_end  # file offset of the restart array
        count_at = block_length - 2

        def put_u32(offset, value):
            data[offset : offset + 4] = struct.pack("<I", value)

        if fault == "kind_byte":
            data[third + 6] = 0x7F
        elif fault == "seqno_above_max":
            data[third + 14] = 0x01  # top byte of the u64: above 2**56 - 1
        elif fault == "end_past_next_restart":
            data[third + 2] += 1  # value_len + 1
        elif fault == "end_before_next_restart":
            data[third + 2] -= 1  # value_len - 1: a gap before the successor
        elif fault == "last_record_truncated":
            data[last + 2] += 1  # the last value reaches into the restart array
        elif fault == "first_offset_not_zero":
            put_u32(restarts, 1)
        elif fault == "descending_offsets":
            put_u32(restarts + 8, block.offsets[1] - 1)
        elif fault == "offset_out_of_range":
            put_u32(restarts + 8, 1 << 30)
        elif fault == "count_too_large":
            data[count_at : count_at + 2] = struct.pack("<H", block.count + 3)
        elif fault == "count_too_small":
            data[count_at : count_at + 2] = struct.pack("<H", block.count - 1)
        else:
            data[count_at : count_at + 2] = struct.pack("<H", 0)
        file.data = bytes(data)
        files_before = [t.file_id for _, t in db.manifest.all_files()]
        with pytest.raises(CorruptionError):
            self._compact_l0(db, table)
        # The job died in its input scan: nothing installed, nothing removed.
        assert [t.file_id for _, t in db.manifest.all_files()] == files_before
        assert db.executor.stats.compactions == 0


class TestSwappedBytes:
    """A failure-injection swap of ``file.data`` reaches every reader at once:
    no window over the old bytes outlives the swap."""

    def test_a_partial_read_sees_the_new_bytes(self):
        backend, table = build_table()
        file = table.file
        before, _ = backend.read(file, 3, 5)
        file.data = corrupt(file.data, 5, file.data[5] ^ 0xFF)
        after, _ = backend.read(file, 3, 5)
        assert bytes(after) == file.data[3:8] != bytes(before)

    def test_an_index_load_decodes_the_new_bytes(self):
        from repro.lsm.sstable import encode_index

        backend, table = build_table()
        keys, offsets, lengths = table._index_keys, table._index_offsets, table._index_lengths
        moved = [offset + 1 for offset in offsets]  # same widths, so same size
        start, end = table.index_offset, table.index_offset + table.index_length
        data = table.file.data
        table.file.data = data[:start] + encode_index(keys, moved, lengths) + data[end:]
        table._index_keys = table._index_offsets = table._index_lengths = None
        table._load_index(BlockCache(64 * KIB))
        assert list(table._index_offsets) == moved and table._index_lengths == lengths

    @pytest.mark.parametrize("resident_filter", [True, False])
    def test_an_adopted_move_copies_the_new_bytes(self, resident_filter):
        backend, table = build_table()
        keys, seqnos, kinds, starts, ends, hashes = [], [], [], [], [], []
        table.read_all_spans(keys, seqnos, kinds, starts, ends, hashes)
        # A value byte of the first record: every structure stays valid.
        at = ends[0] - 1
        table.file.data = corrupt(table.file.data, at, ord("w"))
        if not resident_filter:  # adopt then decodes the filter from the file
            table._bloom = None
        builder = SSTableBuilder(backend, table.tier, block_bytes=512, target_file_bytes=1 << 30)
        sizes = [end - start for start, end in zip(starts, ends)]
        adopted = builder.adopt(table, keys, seqnos, kinds, sizes)
        copied = table.index_offset + table.index_length
        assert adopted.file.data[:copied] == table.file.data[:copied]
        assert adopted.file.data[at] == ord("w")


class TestCodecCorruption:
    def test_bloom_truncation(self):
        bloom = BloomFilter.for_capacity(10)
        bloom.add(b"x")
        with pytest.raises(CorruptionError):
            BloomFilter.decode(bloom.encode()[:2])

    def test_index_truncation(self):
        from repro.lsm.sstable import encode_index

        payload = encode_index([b"abc"], [0], [10])
        with pytest.raises(CorruptionError):
            decode_index(payload[:-2])

    def test_block_record_kind_corruption(self):
        from repro.lsm.block import DataBlockBuilder

        builder = DataBlockBuilder(4096)
        builder.add(Record(b"k", 1, ValueKind.PUT, b"v"))
        payload = bytearray(builder.finish())
        payload[6] = 0x7F  # the kind byte of the first record
        with pytest.raises(CorruptionError):
            decode_block(bytes(payload))


class TestResourceExhaustion:
    def test_tier_capacity_error_is_typed(self):
        clock = SimClock()
        backend = StorageBackend(clock)
        tiny = StorageTier("tiny", NVM_SPEC, 1024, clock)
        with pytest.raises(CapacityError):
            backend.create_file(tiny, b"x" * 4096)

    def test_db_survives_value_larger_than_block(self):
        from repro.lsm import DBOptions, LsmDB

        options = DBOptions(
            memtable_bytes=8 * KIB,
            target_file_bytes=8 * KIB,
            level1_target_bytes=16 * KIB,
            level_size_multiplier=4,
            block_bytes=512,
        )
        db = LsmDB.create("NNNTQ", options)
        big_value = b"x" * 2048  # 4x the block size
        db.put(b"big", big_value)
        db.flush()
        assert db.get(b"big").value == big_value

    def test_many_tiny_keys_roll_files_correctly(self):
        from repro.lsm import DBOptions, LsmDB

        options = DBOptions(
            memtable_bytes=1 * KIB,
            target_file_bytes=1 * KIB,
            level1_target_bytes=2 * KIB,
            level_size_multiplier=4,
            block_bytes=256,
        )
        db = LsmDB.create("NNNTQ", options)
        for i in range(2000):
            db.put(f"{i:06d}".encode(), b"x")
        db.flush()
        db.check_invariants()
        for i in range(0, 2000, 173):
            assert db.get(f"{i:06d}".encode()).found


class TestMigrationLockStalls:
    def test_reads_stall_during_migration_and_recover_after(self):
        clock = SimClock()
        backend = StorageBackend(clock)
        nvm = StorageTier("nvm", NVM_SPEC, 64 * MIB, clock)
        from repro.storage import QLC_SPEC

        qlc = StorageTier("qlc", QLC_SPEC, 64 * MIB, clock)
        file = backend.create_file(nvm, b"z" * MIB)
        lock = backend.migrate_file(file, qlc)
        _, stalled = backend.read(file, 0, 4096)
        assert stalled > lock  # waits out the lock
        assert backend.stats.lock_stalls == 1
        clock.advance(lock * 10)
        _, later = backend.read(file, 0, 4096)
        assert later < stalled
