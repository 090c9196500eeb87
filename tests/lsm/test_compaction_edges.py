"""Edge-case tests for compaction scheduling and the pin reserve."""

import pytest

from repro.common import KIB, SimClock
from repro.lsm.block_cache import BlockCache
from repro.lsm.compaction import (
    CompactDownRouter,
    CompactionExecutor,
    LargestFilePicker,
)
from repro.lsm.layout import build_layout
from repro.lsm.options import DBOptions
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.version import LevelManifest
from repro.storage import StorageBackend


def make_env(pin_reserve=0.5):
    options = DBOptions(
        memtable_bytes=4 * KIB,
        target_file_bytes=4 * KIB,
        level1_target_bytes=8 * KIB,
        level_size_multiplier=4,
        block_bytes=1 * KIB,
        pin_reserve_fraction=pin_reserve,
    )
    clock = SimClock()
    backend = StorageBackend(clock)
    layout = build_layout("NNNNN", options, clock)
    manifest = LevelManifest(options.num_levels)
    executor = CompactionExecutor(
        backend, manifest, layout, options, BlockCache(64 * KIB),
        LargestFilePicker(), CompactDownRouter(),
    )
    return options, backend, layout, manifest, executor


def add_table(backend, layout, manifest, level, keys, *, score=0.0, seqno_base=0):
    builder = SSTableBuilder(
        backend, layout.tier_for_level(level), block_bytes=1 * KIB, target_file_bytes=1 << 30
    )
    for i, key in enumerate(sorted(keys)):
        builder.add(Record(key, seqno_base + i + 1, ValueKind.PUT, b"v" * 40))
    table = builder.finish()
    table.popularity_score = score
    manifest.add_file(level, table)
    return table


class TestPinReserveScoring:
    def test_hot_bytes_counts_positive_scores_only(self):
        _, backend, layout, manifest, _ = make_env()
        cold = add_table(backend, layout, manifest, 1, [b"a"], score=0.0)
        hot = add_table(backend, layout, manifest, 1, [b"m"], score=5.0, seqno_base=10)
        assert manifest.hot_bytes(1) == hot.size_bytes
        assert manifest.hot_bytes(2) == 0
        manifest.remove_file(1, hot)
        assert manifest.hot_bytes(1) == 0 and manifest.level_bytes(1) == cold.size_bytes

    def test_hot_data_discounted_from_score(self):
        options, backend, layout, manifest, executor = make_env(pin_reserve=1.0)
        # Fill L1 beyond target with HOT data only: the reserve absorbs
        # it and the level does not demand compaction.
        keys = [f"k{i:03d}".encode() for i in range(180)]
        add_table(backend, layout, manifest, 1, keys, score=100.0)
        assert manifest.level_bytes(1) > options.level_target_bytes(1)
        assert executor.compaction_score(1) < 1.0

    def test_cold_overflow_still_triggers(self):
        options, backend, layout, manifest, executor = make_env(pin_reserve=1.0)
        keys = [f"k{i:03d}".encode() for i in range(180)]
        add_table(backend, layout, manifest, 1, keys, score=0.0)
        assert executor.compaction_score(1) > 1.0

    def test_reserve_is_capped(self):
        options, backend, layout, manifest, executor = make_env(pin_reserve=0.25)
        # Hot data way beyond the reserve: only the reserve is discounted.
        keys = [f"k{i:03d}".encode() for i in range(300)]
        add_table(backend, layout, manifest, 1, keys, score=50.0)
        target = options.level_target_bytes(1)
        expected = (manifest.level_bytes(1) - int(target * 0.25)) / target
        assert executor.compaction_score(1) == pytest.approx(expected)


class TestSchedulingEdges:
    def test_max_jobs_cap_bounds_one_call(self):
        options, backend, layout, manifest, executor = make_env()
        # A pathological pile of overlapping L0 files.
        for i in range(10):
            add_table(backend, layout, manifest, 0, [b"a", b"z"], seqno_base=i * 10)
        jobs = executor.maybe_compact()
        assert jobs <= executor.MAX_JOBS_PER_CALL

    def test_empty_tree_needs_nothing(self):
        _, _, _, _, executor = make_env()
        assert executor.pick_compaction_level() is None
        assert executor.maybe_compact() == 0

    def test_run_job_on_empty_level_is_noop(self):
        _, _, _, manifest, executor = make_env()
        executor.run_job(1)
        assert executor.stats.compactions == 0
        assert manifest.file_count() == 0

    def test_compaction_cascade_terminates(self):
        options, backend, layout, manifest, executor = make_env()
        # Dump far more data than L1's target and let the executor work
        # it all the way down.
        for batch in range(12):
            keys = [f"k{batch:02d}{i:03d}".encode() for i in range(60)]
            add_table(backend, layout, manifest, 0, keys, seqno_base=batch * 100)
            executor.maybe_compact()
        assert executor.pick_compaction_level() is None
        manifest.check_invariants()
