"""Crash-recovery tests: the WAL protects unflushed writes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import KIB
from repro.core import PrismDB, PrismOptions
from repro.lsm import DBOptions, LsmDB


def tiny_options(**kwargs):
    defaults = dict(
        memtable_bytes=2 * KIB,
        target_file_bytes=2 * KIB,
        level1_target_bytes=4 * KIB,
        level_size_multiplier=4,
        block_bytes=512,
        block_cache_bytes=8 * KIB,
    )
    defaults.update(kwargs)
    return DBOptions(**defaults)


class TestCrashRecovery:
    def test_unflushed_writes_survive_crash(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        db.put(b"durable", b"on-disk")
        db.flush()
        db.put(b"volatile", b"in-memtable")
        replayed = db.simulate_crash_and_recover()
        assert replayed == 1
        assert db.get(b"durable").value == b"on-disk"
        assert db.get(b"volatile").value == b"in-memtable"

    def test_deletes_survive_crash(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        db.simulate_crash_and_recover()
        assert not db.get(b"k").found

    def test_wal_truncated_after_flush(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        db.put(b"k", b"v")
        db.flush()
        # The flushed segment is gone: nothing to replay.
        assert db.simulate_crash_and_recover() == 0
        assert db.get(b"k").value == b"v"

    def test_cache_is_cold_after_crash(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        for i in range(200):
            db.put(f"key{i:04d}".encode(), b"v" * 30)
        db.flush()
        db.get(b"key0000")
        assert len(db.cache) > 0
        db.simulate_crash_and_recover()
        assert len(db.cache) == 0

    def test_writes_after_recovery_stay_newest(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        db.put(b"k", b"v1")
        db.simulate_crash_and_recover()
        db.put(b"k", b"v2")
        assert db.get(b"k").value == b"v2"
        db.flush()
        db.check_invariants()

    def test_repeated_crashes(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        for round_number in range(5):
            db.put(f"round{round_number}".encode(), b"x")
            db.simulate_crash_and_recover()
        for round_number in range(5):
            assert db.get(f"round{round_number}".encode()).found

    def test_prismdb_recovers_too(self):
        db = PrismDB.create(
            "NNNTQ", tiny_options(), PrismOptions(tracker_capacity=16, require_full_tracker=False)
        )
        db.put(b"k", b"v")
        db.get(b"k")
        db.simulate_crash_and_recover()
        assert db.get(b"k").value == b"v"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "flush", "crash"]),
                st.sampled_from([f"key{i}".encode() for i in range(15)]),
                st.binary(min_size=1, max_size=25),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_recovery_preserves_model_with_wal(self, ops):
        db = LsmDB.create("NNNTQ", tiny_options())
        model: dict[bytes, bytes] = {}
        for op, key, value in ops:
            if op == "put":
                db.put(key, value)
                model[key] = value
            elif op == "delete":
                db.delete(key)
                model.pop(key, None)
            elif op == "flush":
                db.flush()
            else:
                db.simulate_crash_and_recover()
        db.simulate_crash_and_recover()
        for key in model:
            assert db.get(key).value == model[key]
        assert dict(db.scan(b"", 100).items) == model
