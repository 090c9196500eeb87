"""Tests for the Mutant baseline."""

import pytest

from repro.common import KIB, seconds
from repro.baselines.mutant import MutantDB, MutantOptions
from repro.baselines.rocksdb import RocksDBLike
from repro.errors import ConfigError
from repro.lsm import DBOptions
from repro.lsm.compaction import CompactDownRouter, LargestFilePicker


def tiny_options(**kwargs):
    defaults = dict(
        memtable_bytes=2 * KIB,
        target_file_bytes=2 * KIB,
        level1_target_bytes=4 * KIB,
        level_size_multiplier=4,
        block_bytes=512,
        block_cache_bytes=16 * KIB,
    )
    defaults.update(kwargs)
    return DBOptions(**defaults)


def make_db(**mutant_kwargs):
    return MutantDB.create("NNNTQ", tiny_options(), MutantOptions(**mutant_kwargs))


def populate(db, n=1500):
    for i in range(n):
        db.put(f"key{i:06d}".encode(), b"v" * 40)
    db.flush()


class TestMutantOptions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MutantOptions(epoch_usec=0)

    def test_paper_defaults(self):
        options = MutantOptions()
        assert options.epoch_usec == seconds(1)


class TestRocksDBBaseline:
    def test_uses_classic_policies(self):
        db = RocksDBLike.create("QQQQQ", tiny_options())
        assert isinstance(db.picker, LargestFilePicker)
        assert isinstance(db.router, CompactDownRouter)
        assert db.name == "rocksdb"

    def test_basic_operation(self):
        db = RocksDBLike.create("NNNTQ", tiny_options())
        db.put(b"k", b"v")
        assert db.get(b"k").value == b"v"


class TestTemperatures:
    def test_temperature_accumulates_accesses(self):
        db = make_db()
        populate(db)
        key = b"key000500"
        for _ in range(20):
            db.get(key)
        db.run_optimizer_epoch()
        served = db.get(key)
        assert served.found
        # Some file holding the key got hotter than an untouched one.
        assert max(db._temperatures.values()) > 0

    def test_cooling_decays_temperature(self):
        db = make_db()
        populate(db)
        for _ in range(20):
            db.get(b"key000500")
        db.run_optimizer_epoch()
        hottest_before = max(db._temperatures.values())
        for _ in range(5):
            db.run_optimizer_epoch()  # no accesses in between
        assert max(db._temperatures.values()) < hottest_before

    def test_deleted_files_forgotten(self):
        db = make_db()
        populate(db)
        db.run_optimizer_epoch()
        live = {table.file_id for _, table in db.manifest.all_files()}
        assert set(db._temperatures) <= live


class TestMigration:
    def test_hot_files_move_to_fast_tier(self):
        db = make_db()
        populate(db, 3000)
        # Hammer a narrow key range so its files heat up.
        for _ in range(400):
            db.get(b"key000100")
            db.get(b"key000101")
        db.run_optimizer_epoch()
        hot_table = None
        for _, table in db.manifest.all_files():
            records = table.read_all_records()
            if any(r.user_key == b"key000100" for r in records):
                hot_table = table
        assert hot_table is not None
        assert hot_table.tier.spec.name == "NVM"
        assert db.mutant_stats.migrations > 0

    def test_epoch_triggered_by_clock(self):
        db = make_db(epoch_usec=1000.0)
        populate(db)
        db.clock.advance(5000.0)
        db.get(b"key000001")  # piggybacked epoch check
        assert db.mutant_stats.epochs >= 1

    def test_no_epoch_before_interval(self):
        db = make_db(epoch_usec=seconds(100))
        populate(db)
        db.get(b"key000001")
        assert db.mutant_stats.epochs == 0

    def test_placement_respects_nominal_budget(self):
        db = make_db()
        populate(db, 3000)
        for i in range(500):
            db.get(f"key{i % 200:06d}".encode())
        db.run_optimizer_epoch()
        nvm = db.layout.tier_for_level(0)
        assert nvm.used_bytes <= nvm.capacity_bytes  # within headroom

    def test_data_intact_after_migrations(self):
        db = make_db()
        populate(db, 2000)
        for i in range(300):
            db.get(f"key{i % 50:06d}".encode())
        db.run_optimizer_epoch()
        db.run_optimizer_epoch()
        for i in range(0, 2000, 97):
            assert db.get(f"key{i:06d}".encode()).found
        db.check_invariants()
