"""Tests for compaction picking, routing and execution."""

import pytest

from repro.common import KIB, SimClock
from repro.errors import CompactionError
from repro.lsm.block_cache import BlockCache
from repro.lsm.compaction import (
    CompactDownRouter,
    CompactionExecutor,
    CompactionJob,
    LargestFilePicker,
    MergeRouter,
)
from repro.lsm.layout import build_layout
from repro.lsm.options import DBOptions
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.version import LevelManifest
from repro.storage import StorageBackend


def small_options(**kwargs):
    defaults = dict(
        memtable_bytes=4 * KIB,
        target_file_bytes=4 * KIB,
        level1_target_bytes=8 * KIB,
        level_size_multiplier=4,
        block_bytes=1 * KIB,
    )
    defaults.update(kwargs)
    return DBOptions(**defaults)


class CompactionFixture:
    def __init__(self, layout_code="NNNNN", router=None, options=None):
        self.options = options or small_options()
        self.clock = SimClock()
        self.backend = StorageBackend(self.clock)
        self.layout = build_layout(layout_code, self.options, self.clock)
        self.manifest = LevelManifest(self.options.num_levels)
        self.cache = BlockCache(64 * KIB)
        self.router = router or CompactDownRouter()
        self.executor = CompactionExecutor(
            self.backend,
            self.manifest,
            self.layout,
            self.options,
            self.cache,
            LargestFilePicker(),
            self.router,
        )
        self.seqno = 0

    def add_table(self, level, keys, *, value=b"v" * 20, kind=ValueKind.PUT):
        builder = SSTableBuilder(
            self.backend,
            self.layout.tier_for_level(level),
            block_bytes=self.options.block_bytes,
            target_file_bytes=1 << 30,  # never rotate inside a fixture table
        )
        for key in sorted(keys):
            self.seqno += 1
            builder.add(Record(key, self.seqno, kind, value if kind == ValueKind.PUT else b""))
        table = builder.finish()
        self.manifest.add_file(level, table)
        return table

    def merge(self, upper_level, lo, hi, *, drop_tombstones=False):
        """Hand-build a leveled job over all of ``upper_level`` and run it."""
        self.executor.execute(CompactionJob(
            "leveled",
            upper_level,
            upper_level + 1,
            list(self.manifest.files(upper_level)),
            self.manifest.overlapping_files(upper_level + 1, lo, hi),
            lo,
            hi,
            drop_tombstones=drop_tombstones,
        ))

    def all_records(self, level):
        result = []
        for table in self.manifest.files(level):
            records = table.read_all_records()
            result.extend(records)
        return result


class TestPickers:
    def test_largest_file_picker(self):
        fx = CompactionFixture()
        small = fx.add_table(1, [b"a"])
        big = fx.add_table(1, [f"m{i}".encode() for i in range(50)])
        assert LargestFilePicker().pick_files(fx.manifest, 1) == [big]
        assert small in fx.manifest.files(1)

    def test_largest_file_ties_break_to_the_oldest(self):
        # Equal sizes: the smaller file id wins, though the level's key
        # order puts the newer file first.
        fx = CompactionFixture()
        older = fx.add_table(1, [b"m"])
        newer = fx.add_table(1, [b"a"])
        assert older.size_bytes == newer.size_bytes
        assert fx.manifest.files(1) == [newer, older]
        assert LargestFilePicker().pick_files(fx.manifest, 1) == [older]

    def test_empty_level_picks_nothing(self):
        fx = CompactionFixture()
        assert LargestFilePicker().pick_files(fx.manifest, 1) == []


class TestScores:
    def test_l0_score_from_file_count(self):
        fx = CompactionFixture()
        for i in range(fx.options.l0_compaction_trigger):
            fx.add_table(0, [f"k{i}".encode()])
        assert fx.executor.compaction_score(0) == pytest.approx(1.0)

    def test_level_score_from_bytes(self):
        fx = CompactionFixture()
        fx.add_table(1, [f"k{i:03d}".encode() for i in range(200)])
        assert fx.executor.compaction_score(1) > 1.0

    def test_bottom_level_never_scores(self):
        fx = CompactionFixture()
        fx.add_table(4, [f"k{i:03d}".encode() for i in range(500)])
        assert fx.executor.compaction_score(4) == 0.0

    def test_pick_compaction_level_none_when_healthy(self):
        fx = CompactionFixture()
        fx.add_table(1, [b"a"])
        assert fx.executor.pick_compaction_level() is None


class TestCompactionExecution:
    def test_l0_to_l1_merges_all_l0(self):
        fx = CompactionFixture()
        fx.add_table(0, [b"a", b"c"])
        fx.add_table(0, [b"b", b"d"])
        fx.executor.run_job(0)
        assert fx.manifest.file_count(0) == 0
        keys = sorted(r.user_key for r in fx.all_records(1))
        assert keys == [b"a", b"b", b"c", b"d"]

    def test_shadowed_versions_dropped(self):
        fx = CompactionFixture()
        fx.add_table(1, [b"k"])          # older version
        # Move it down so L1 is free, then write a newer version at L1.
        fx.executor.run_job(1)
        fx.add_table(1, [b"k"])          # newer version (higher seqno)
        fx.merge(1, b"k", b"k")
        records = fx.all_records(2)
        assert len(records) == 1
        assert fx.executor.stats.shadowed_dropped == 1

    def test_tombstone_dropped_at_bottom(self):
        fx = CompactionFixture()
        fx.add_table(3, [b"k"], kind=ValueKind.DELETE)
        fx.merge(3, b"k", b"k", drop_tombstones=True)
        assert fx.all_records(4) == []
        assert fx.executor.stats.records["tombstone_dropped"] == 1

    def test_job_flag_decides_tombstone_drop_even_at_bottom(self):
        # drop_tombstones is the planner's call, not the executor's: a
        # job into the bottom level that does not set it keeps them.
        fx = CompactionFixture()
        fx.add_table(3, [b"k"], kind=ValueKind.DELETE)
        fx.merge(3, b"k", b"k", drop_tombstones=False)
        records = fx.all_records(4)
        assert len(records) == 1
        assert records[0].is_tombstone
        assert fx.executor.stats.records["tombstone_dropped"] == 0

    def test_tombstone_kept_above_bottom(self):
        fx = CompactionFixture()
        fx.add_table(1, [b"k"], kind=ValueKind.DELETE)
        fx.merge(1, b"k", b"k")
        records = fx.all_records(2)
        assert len(records) == 1
        assert records[0].is_tombstone

    def test_trivial_move_same_tier(self):
        fx = CompactionFixture("NNNNN")
        table = fx.add_table(1, [b"a", b"b"])
        fx.executor.run_job(1)
        assert fx.executor.stats.trivial_moves == 1
        assert fx.executor.stats.compactions == 0
        assert fx.manifest.files(2) == [table]

    def test_no_trivial_move_across_tiers(self):
        fx = CompactionFixture("NNTQQ")  # L1 -> L2 crosses NVM -> TLC
        written_before = fx.executor.stats.bytes_written
        fx.add_table(1, [b"a", b"b"])
        fx.executor.run_job(1)
        assert fx.executor.stats.trivial_moves == 0
        assert fx.executor.stats.compactions == 1
        assert fx.executor.stats.bytes_written > written_before
        assert fx.manifest.files(2)[0].tier.spec.name == "TLC"

    def test_no_trivial_move_with_overlap(self):
        fx = CompactionFixture("NNNNN")
        fx.add_table(1, [b"a", b"m"])
        fx.add_table(2, [b"b", b"c"])
        fx.executor.run_job(1)
        assert fx.executor.stats.trivial_moves == 0
        assert fx.executor.stats.compactions == 1
        keys = sorted(r.user_key for r in fx.all_records(2))
        assert keys == [b"a", b"b", b"c", b"m"]

    def test_inputs_deleted_after_compaction(self):
        fx = CompactionFixture()
        table = fx.add_table(1, [b"a", b"b"])
        lower = fx.add_table(2, [b"a", b"z"])
        fx.executor.run_job(1)
        assert table.file.deleted
        assert lower.file.deleted
        assert fx.backend.stats.files_deleted == 2

    def test_bottom_level_cannot_compact(self):
        fx = CompactionFixture()
        with pytest.raises(CompactionError):
            fx.executor.run_job(4)

    def test_maybe_compact_resolves_pressure(self):
        fx = CompactionFixture()
        for i in range(8):  # double the L0 trigger
            fx.add_table(0, [f"k{i}".encode()])
        jobs = fx.executor.maybe_compact()
        assert jobs >= 1
        assert fx.executor.pick_compaction_level() is None

    def test_output_rotation_at_target_size(self):
        fx = CompactionFixture(options=small_options(target_file_bytes=2 * KIB))
        fx.add_table(1, [f"k{i:04d}".encode() for i in range(300)], value=b"v" * 30)
        fx.merge(1, b"k0000", b"k0299")
        assert fx.manifest.file_count(2) > 1
        fx.manifest.check_invariants()


class PinEverythingRouter(MergeRouter):
    """Test double: pins every record to the upper level."""

    def allows_trivial_move(self, table):
        return False

    def route_up_key(self, user_key, kind_code, encoded_size, source_level):
        return True


class TestRouterIntegration:
    def test_pinned_records_stay_in_upper_level(self):
        fx = CompactionFixture(router=PinEverythingRouter())
        fx.add_table(1, [b"a", b"b"])
        fx.merge(1, b"a", b"b")
        assert sorted(r.user_key for r in fx.all_records(1)) == [b"a", b"b"]
        assert fx.all_records(2) == []
        assert fx.executor.stats.records["pinned"] == 2

    def test_up_compaction_pulls_lower_records(self):
        fx = CompactionFixture(router=PinEverythingRouter())
        fx.add_table(1, [b"a", b"z"])
        fx.add_table(2, [b"m"])  # inside the upper range: eligible to rise
        fx.merge(1, b"a", b"z")
        upper_keys = sorted(r.user_key for r in fx.all_records(1))
        assert upper_keys == [b"a", b"m", b"z"]
        assert fx.executor.stats.records["pulled_up"] == 1

    def test_up_compaction_respects_upper_range(self):
        fx = CompactionFixture(router=PinEverythingRouter())
        fx.add_table(1, [b"d", b"f"])
        fx.add_table(2, [b"e", b"x"])  # b"x" outside [d, f]: must not rise
        fx.merge(1, b"d", b"f")
        upper_keys = sorted(r.user_key for r in fx.all_records(1))
        lower_keys = sorted(r.user_key for r in fx.all_records(2))
        assert upper_keys == [b"d", b"e", b"f"]
        assert lower_keys == [b"x"]
        fx.manifest.check_invariants()

    def test_consistency_preserved_with_versions(self):
        fx = CompactionFixture(router=PinEverythingRouter())
        fx.add_table(2, [b"k"])  # old version below
        fx.add_table(1, [b"k"])  # new version above (higher seqno)
        fx.merge(1, b"k", b"k")
        upper = fx.all_records(1)
        assert len(upper) == 1  # old version dropped, newest pinned
        assert fx.all_records(2) == []
