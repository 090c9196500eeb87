"""The public point operations *are* the lanes.

``get`` / ``put`` / ``delete`` call the instance's cached
``read_lane()`` / ``write_lane()`` closures, so one op sequence must
leave identical results and identical books whichever way it is driven.
"""

import dataclasses
import sys

import pytest

from repro.baselines import MutantDB, MutantOptions, RocksDBLike
from repro.common import KIB
from repro.common import rng as rng_module
from repro.core import PrismDB, PrismOptions
from repro.errors import DBClosedError
from repro.lsm import DBOptions, LsmDB
from repro.lsm.sstable import SSTable
from repro.obs.attribution import LatencyAttribution, OpContext, attributing


def tiny_options(**kwargs):
    defaults = dict(
        memtable_bytes=2 * KIB,
        target_file_bytes=2 * KIB,
        level1_target_bytes=4 * KIB,
        level_size_multiplier=4,
        block_bytes=512,
        block_cache_bytes=16 * KIB,
        row_cache_bytes=2 * KIB,
    )
    defaults.update(kwargs)
    return DBOptions(**defaults)


SYSTEMS = {
    "rocksdb": lambda: RocksDBLike.create("NNNTQ", tiny_options()),
    "prismdb": lambda: PrismDB.create("NNNTQ", tiny_options(), PrismOptions(tracker_capacity=64)),
    # A short epoch, so the optimizer runs (and migrates) inside the sequence.
    "mutant": lambda: MutantDB.create("NNNTQ", tiny_options(), MutantOptions(epoch_usec=200.0)),
}


def key(i):
    return f"key{i:05d}".encode()


def drive(db, get, put, delete):
    """One sequence through every point-op outcome; returns each result."""
    results = []

    def step(result):
        results.append(result)
        db.clock.advance(result.latency_usec)

    for i in range(0, 400, 2):  # even keys only; fills and flushes the memtable
        step(put(key(i), b"v" * 40))
    db.flush()
    for i in range(0, 400, 20):
        step(get(key(i)))  # L0 / deeper levels
        step(get(key(i)))  # row cache
        step(get(key(i + 1)))  # absent, inside the key range: bloom-filtered miss
    step(put(key(0), b"fresh"))
    step(get(key(0)))  # memtable
    step(delete(key(2)))
    step(get(key(2)))  # tombstone in the memtable
    db.flush()
    step(get(key(2)))  # tombstone in a table
    step(get(key(2)))  # remembered absence
    return results


def books(db):
    stats = dataclasses.asdict(db.stats)
    stats["reads_by_source"] = db.stats.reads_by_source.as_dict()
    return {
        "stats": stats,
        "file_read_counts": dict(db.file_read_counts),
        "metrics": db.metrics.snapshot(),
        "clock": db.clock.now,
        "levels": db.level_summary(),
        "mutant": dataclasses.asdict(db.mutant_stats) if hasattr(db, "mutant_stats") else None,
    }


def drive_public(db):
    return drive(db, db.get, db.put, db.delete)


def drive_public_attributed(db):
    contexts = []

    def attributed(op, call):
        def traced(*args):
            contexts.append(OpContext(op))
            with attributing(contexts[-1]):
                result = call(*args)
            assert sum(contexts[-1].parts.values()) == pytest.approx(result.latency_usec)
            return result

        return traced

    results = drive(
        db, attributed("read", db.get), attributed("update", db.put),
        attributed("update", db.delete),
    )
    assert len(contexts) == len(results)
    return results


def drive_lanes(db):
    # A lane takes no tombstone from outside; deletes stay on the public method.
    return drive(db, db.read_lane(), db.write_lane(), db.delete)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_public_methods_and_lanes_keep_identical_books(system):
    reference_db = SYSTEMS[system]()
    reference = drive_public(reference_db)

    # The sequence reaches every outcome it claims to.
    served = {r.served_by for r in reference if hasattr(r, "served_by")}
    assert {"memtable", "rowcache", "miss"} <= served
    assert any(source.startswith("L") for source in served)
    assert any(r.value is None and r.seqno is not None for r in reference if hasattr(r, "value"))
    assert any(getattr(r, "triggered_flush", False) for r in reference)
    assert reference_db.stats.bloom_negative_skips > 0
    if system == "mutant":
        assert reference_db.mutant_stats.epochs > 0

    for other in (drive_public_attributed, drive_lanes):
        twin = SYSTEMS[system]()
        assert other(twin) == reference
        assert books(twin) == books(reference_db)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_attribution_wraps_arity_exact_lane_wrappers(system):
    # perfbench's oracle wraps each lane in a closure of the lane's own
    # arity; attribution must wrap such a closure as it is.
    db = SYSTEMS[system]()
    lookup, commit = db.read_lane(), db.write_lane()
    attribution = LatencyAttribution()
    attribution.attributed("update", lambda k, v: commit(k, v))(b"k", b"v")
    attribution.attributed("read", lambda k: lookup(k))(b"k")
    attribution.attributed("scan", lambda k, n: db.scan(k, n))(b"", 5)
    ops = attribution.to_dict()["ops"]
    parts = {
        op: {name for bucket in info["buckets"] for name in bucket["parts"]}
        for op, info in ops.items()
    }
    tracker = {"tracker/-"} if system == "prismdb" else set()
    assert parts["read"] == {"cpu/-", "memtable/dram"} | tracker
    assert {"cpu/-", "memtable/dram"} < parts["update"]
    assert any(name.startswith("wal/") for name in parts["update"])
    assert parts["scan"] == {"cpu/-"}


def test_a_charge_after_the_level_walk_is_outside_every_table_scope():
    db = SYSTEMS["prismdb"]()
    for i in range(0, 400, 2):
        db.put(key(i), b"v" * 40)
    db.flush()
    ctx = OpContext("read")
    with attributing(ctx):
        assert db.get(key(0)).served_by.startswith("L")
    probe_scope = ctx.events[1][0]  # the first charge after cpu: the filter
    assert probe_scope.startswith("L") and ":f" in probe_scope
    assert ctx.events[-1][:2] == ("", "tracker")


def test_put_none_is_an_error_not_a_tombstone():
    db = LsmDB.create("NNNTQ", tiny_options())
    db.put(b"k", b"v")
    with pytest.raises(TypeError):
        db.put(b"k", None)
    assert db.get(b"k").value == b"v"


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_entry_point_refuses_a_closed_db(system):
    db = SYSTEMS[system]()
    db.put(b"k", b"v")
    db.close()
    for call in (
        lambda: db.get(b"k"),
        lambda: db.put(b"k", b"v"),
        lambda: db.delete(b"k"),
        db.read_lane,
        db.write_lane,
    ):
        with pytest.raises(DBClosedError):
            call()


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_reopened_instance_hands_out_its_own_lanes(system):
    db = SYSTEMS[system]()
    for i in range(100):
        db.put(key(i), b"v" * 40)
    assert db.get(key(1)).value == b"v" * 40  # the old instance's lane exists
    reopened = db.reopen()
    with pytest.raises(DBClosedError):
        db.get(key(1))
    assert reopened.read_lane()(key(1)).value == b"v" * 40
    reopened.write_lane()(key(1), b"new")
    assert reopened.get(key(1)).value == b"new"
    assert reopened.stats.user_reads == 2 and db.stats.user_reads == 1


def test_cached_lane_reads_the_recovered_memtable():
    db = LsmDB.create("NNNTQ", tiny_options(row_cache_bytes=0))
    db.put(b"k", b"v")
    assert db.get(b"k").served_by == "memtable"  # lanes are cached from here on
    db.simulate_crash_and_recover()
    result = db.get(b"k")
    # The WAL replays the write into the memtable built by recovery, and
    # the cached lane reads that one, not the old one.
    assert result.value == b"v"
    assert result.served_by == "memtable"
    db.put(b"k", b"v2")
    assert db.get(b"k").value == b"v2"


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_a_lookup_hashes_its_key_once_however_many_tables_it_probes(system):
    """The read lane hands one ``fnv1a_64(key)`` to every table's filter.

    Counted with ``sys.setprofile``: a deterministic stand-in for the
    host time a per-table re-hash would cost.
    """
    db = SYSTEMS[system]()
    for round_ in range(6):  # overwrites push versions down all five levels
        for i in range(0, 2000, 2):
            result = db.put(key(i), b"%d" % round_ * 40)
            db.clock.advance(result.latency_usec)
    assert all(db.manifest.files(level) for level in range(1, db.manifest.num_levels))
    db.row_cache.clear()

    hash_code = rng_module.fnv1a_64.__code__
    probe_code = SSTable.get.__code__
    counts = {hash_code: 0, probe_code: 0}

    def profiler(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in counts:
            # PrismDB's tracker also hashes the 8-byte version it read.
            if code is probe_code or len(frame.f_locals["data"]) > 8:
                counts[code] += 1

    most_probed = 0
    for i in range(0, 2000, 7):  # present and absent keys alike
        counts[hash_code] = counts[probe_code] = 0
        sys.setprofile(profiler)
        try:
            db.get(key(i))
        finally:
            sys.setprofile(None)
        assert counts[hash_code] <= 1, (key(i), counts)
        most_probed = max(most_probed, counts[probe_code])
    assert most_probed >= 3  # the budget was exercised by multi-table walks
