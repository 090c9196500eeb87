"""End-to-end tests for PrismDB."""

import random

import pytest

from repro.baselines import RocksDBLike
from repro.common import KIB
from repro.core import PrismDB, PrismOptions
from repro.core.prismdb import TRACKER_OVERHEAD_USEC
from repro.errors import ConfigError
from repro.lsm import DBOptions


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


def make_db(**prism_kwargs):
    prism = PrismOptions(tracker_capacity=64, **prism_kwargs)
    return PrismDB.create("NNNTQ", tiny_options(), prism)


class TestPrismOptions:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PrismOptions(tracker_capacity=0)
        with pytest.raises(ConfigError):
            PrismOptions(pinning_threshold=2.0)

    def test_for_keyspace(self):
        assert PrismOptions.for_keyspace(1000).tracker_capacity == 100
        assert PrismOptions.for_keyspace(5).tracker_capacity == 1  # floor of 1


class TestPrismDB:
    def test_basic_crud(self):
        db = make_db()
        db.put(b"k", b"v")
        assert db.get(b"k").value == b"v"
        db.delete(b"k")
        assert not db.get(b"k").found

    def test_reads_feed_tracker(self):
        db = make_db()
        db.put(b"k", b"v")
        db.get(b"k")
        assert db.tracker.contains(b"k")
        assert db.tracker.clock_value(b"k") == 1
        db.get(b"k")
        assert db.tracker.clock_value(b"k") == 3

    def test_read_latency_includes_tracker_overhead(self):
        prism = make_db()
        baseline = RocksDBLike.create("NNNTQ", tiny_options())
        for db in (prism, baseline):
            db.put(b"k", b"v")
        base = baseline.get(b"k").latency_usec
        latency = prism.get(b"k").latency_usec
        assert TRACKER_OVERHEAD_USEC > 0
        assert latency == pytest.approx(base + TRACKER_OVERHEAD_USEC)

    def test_update_resets_clock_via_version_tag(self):
        db = make_db()
        db.put(b"k", b"v1")
        db.get(b"k")
        db.get(b"k")
        assert db.tracker.clock_value(b"k") == 3
        db.put(b"k", b"v2")
        db.get(b"k")  # new version: treated as a fresh key
        assert db.tracker.clock_value(b"k") == 1

    def test_tracker_respects_capacity(self):
        db = make_db()
        for i in range(200):
            key = f"key{i:04d}".encode()
            db.put(key, b"v")
            db.get(key)
        assert len(db.tracker) <= db.prism_options.tracker_capacity + 1

    def test_uses_read_aware_policies(self):
        from repro.core.placer import LowestScorePicker, ReadAwareRouter

        db = make_db()
        assert isinstance(db.picker, LowestScorePicker)
        assert isinstance(db.router, ReadAwareRouter)
        assert db.router is db.placer

    def test_invariants_hold_under_skewed_churn(self):
        db = make_db(pinning_threshold=0.3, require_full_tracker=False)
        rng = random.Random(11)
        keys = [f"key{i:04d}".encode() for i in range(150)]
        hot = keys[:15]
        for _ in range(4000):
            if rng.random() < 0.3:
                db.put(rng.choice(keys), rng.randbytes(24))
            else:
                key = rng.choice(hot if rng.random() < 0.8 else keys)
                db.get(key)
        db.flush()
        db.check_invariants()

    def test_pinning_happens_under_churn(self):
        db = make_db(pinning_threshold=0.5, require_full_tracker=False)
        rng = random.Random(3)
        keys = [f"key{i:04d}".encode() for i in range(300)]
        hot = keys[:20]
        for _ in range(8000):
            if rng.random() < 0.25:
                db.put(rng.choice(keys), rng.randbytes(24))
            else:
                db.get(rng.choice(hot if rng.random() < 0.8 else keys))
        total = db.executor.stats.records["pinned"] + db.executor.stats.records["pulled_up"]
        assert total > 0

    def test_reads_still_correct_with_pinning(self):
        db = make_db(pinning_threshold=1.0, require_full_tracker=False)
        rng = random.Random(5)
        model = {}
        keys = [f"key{i:04d}".encode() for i in range(120)]
        for _ in range(5000):
            key = rng.choice(keys)
            if rng.random() < 0.4:
                value = rng.randbytes(20)
                db.put(key, value)
                model[key] = value
            else:
                assert db.get(key).value == model.get(key)
        for key, value in model.items():
            assert db.get(key).value == value
