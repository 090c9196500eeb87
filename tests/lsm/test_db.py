"""End-to-end tests for LsmDB."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import KIB
from repro.errors import DBClosedError
from repro.lsm import DBOptions, LsmDB
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTableBuilder


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


def make_db(code="NNNTQ", **kwargs):
    return LsmDB.create(code, tiny_options(**kwargs))


class TestBasicOperations:
    def test_put_get(self):
        db = make_db()
        db.put(b"key", b"value")
        result = db.get(b"key")
        assert result.found
        assert result.value == b"value"
        assert result.served_by == "memtable"

    def test_get_missing(self):
        db = make_db()
        result = db.get(b"missing")
        assert not result.found
        assert result.served_by == "miss"

    def test_overwrite(self):
        db = make_db()
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k").value == b"v2"

    def test_delete(self):
        db = make_db()
        db.put(b"k", b"v")
        db.delete(b"k")
        assert not db.get(b"k").found

    def test_delete_missing_key_is_fine(self):
        db = make_db()
        db.delete(b"never-existed")
        assert not db.get(b"never-existed").found

    def test_delete_survives_flush(self):
        db = make_db()
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        db.flush()
        assert not db.get(b"k").found

    def test_read_from_disk_after_flush(self):
        db = make_db()
        db.put(b"k", b"v")
        db.flush()
        result = db.get(b"k")
        assert result.value == b"v"
        assert result.served_by.startswith("L")

    def test_latencies_are_positive(self):
        db = make_db()
        write = db.put(b"k", b"v")
        assert write.latency_usec > 0
        read = db.get(b"k")
        assert read.latency_usec > 0

    def test_closed_db_rejects_operations(self):
        db = make_db()
        db.close()
        with pytest.raises(DBClosedError):
            db.put(b"k", b"v")
        with pytest.raises(DBClosedError):
            db.get(b"k")
        with pytest.raises(DBClosedError):
            db.scan(b"", 1)

    def test_layout_options_level_mismatch_rejected(self):
        from repro.lsm.layout import build_layout
        from repro.common import SimClock

        opts3 = DBOptions(num_levels=3)
        layout = build_layout("NTQ", opts3, SimClock())
        with pytest.raises(ValueError):
            LsmDB(layout, tiny_options())


class TestFlushAndCompaction:
    def test_writes_trigger_flush(self):
        db = make_db()
        flushed = False
        for i in range(200):
            result = db.put(f"key{i:06d}".encode(), b"v" * 40)
            flushed = flushed or result.triggered_flush
        assert flushed
        assert db.stats.flush_count >= 1

    def test_flush_empties_memtable_into_l0(self):
        db = make_db()
        db.put(b"k", b"v")
        db.flush()
        assert db.manifest.file_count() >= 1
        assert len(db._memtable) == 0

    def test_flush_empty_memtable_is_noop(self):
        db = make_db()
        assert db.flush() == 0
        assert db.stats.flush_count == 0

    def test_compactions_eventually_fill_lower_levels(self):
        db = make_db()
        for i in range(2000):
            db.put(f"key{i:06d}".encode(), b"v" * 40)
        db.flush()
        occupied = [row["level"] for row in db.level_summary() if row["files"] > 0]
        assert max(occupied) >= 2

    def test_invariants_hold_after_heavy_churn(self):
        db = make_db()
        import random

        rng = random.Random(7)
        keys = [f"key{i:05d}".encode() for i in range(300)]
        for _ in range(3000):
            db.put(rng.choice(keys), rng.randbytes(30))
        db.flush()
        db.check_invariants()

    def test_invariants_reject_a_newer_l0_file_holding_an_older_version(self):
        db = make_db()

        def l0_table(seqno):
            builder = SSTableBuilder(
                db.backend, db.layout.tier_for_level(0), block_bytes=512,
                target_file_bytes=2 * KIB,
            )
            builder.add(Record(b"k", seqno, ValueKind.PUT, b"v"))
            return builder.finish()

        db.manifest.add_file(0, l0_table(5))
        db.manifest.add_file(0, l0_table(3))  # the newer run, the older version
        with pytest.raises(AssertionError, match="consistency violation"):
            db.check_invariants()

    def test_wal_bytes_accumulate(self):
        db = make_db()
        db.put(b"k", b"v")
        assert db.wal.total_bytes > 0


class TestScan:
    def test_scan_returns_sorted_live_keys(self):
        db = make_db()
        for key in [b"d", b"a", b"c", b"b"]:
            db.put(key, key.upper())
        db.delete(b"b")
        result = db.scan(b"a", 10)
        assert [k for k, _ in result.items] == [b"a", b"c", b"d"]
        assert result.items[0][1] == b"A"

    def test_scan_count_limit(self):
        db = make_db()
        for i in range(20):
            db.put(f"k{i:02d}".encode(), b"v")
        assert len(db.scan(b"", 5).items) == 5

    def test_scan_across_memtable_and_disk(self):
        db = make_db()
        db.put(b"disk", b"1")
        db.flush()
        db.put(b"mem", b"2")
        result = db.scan(b"", 10)
        assert [k for k, _ in result.items] == [b"disk", b"mem"]

    def test_scan_sees_newest_version(self):
        db = make_db()
        db.put(b"k", b"old")
        db.flush()
        db.put(b"k", b"new")
        result = db.scan(b"", 10)
        assert result.items == [(b"k", b"new")]

    def test_scan_negative_count_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.scan(b"", -1)


class TestStats:
    def test_reads_by_source_tracked(self):
        db = make_db()
        db.put(b"k", b"v")
        db.get(b"k")
        db.flush()
        db.get(b"k")
        sources = db.stats.reads_by_source.as_dict()
        assert sources.get("memtable") == 1
        assert sum(v for k, v in sources.items() if k.startswith("L")) == 1

    def test_write_amplification_computation(self):
        db = make_db()
        for i in range(500):
            db.put(f"key{i:06d}".encode(), b"v" * 40)
        db.flush()
        wa = db.stats.write_amplification(db.executor.stats.bytes_written, db.wal.total_bytes)
        assert wa > 1.0  # at minimum the WAL + flush double-write


@st.composite
def operations(draw):
    keyspace = [f"key{i:02d}".encode() for i in range(20)]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get", "flush"]),
                st.sampled_from(keyspace),
                st.binary(min_size=1, max_size=30),
            ),
            max_size=120,
        )
    )
    return ops


class TestModelEquivalence:
    @given(operations())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_behaves_like_dict(self, ops):
        db = make_db()
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
                result = db.get(key)
                assert result.value == model.get(key)
        # Final sweep: every key agrees, and a scan agrees with the model.
        for key in model:
            assert db.get(key).value == model[key]
        scanned = dict(db.scan(b"", 100).items)
        assert scanned == model
        db.check_invariants()
