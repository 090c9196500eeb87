"""Scan-path tests: lazy per-level chaining, cross-boundary scans, and
the engine's one-loop cursor merge held against the generator-chain
oracle in ``reference_scan.py`` (items *and* the simulated side)."""

import dataclasses
import random
from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_scan import reference_scan

from repro.common import KIB
from repro.lsm import DBOptions, LsmDB
from repro.lsm.block import DataBlock
from repro.lsm.block_cache import BlockType
from repro.lsm.record import Record
from repro.obs.attribution import OpContext, attributing


def make_db(**kwargs):
    defaults = dict(
        memtable_bytes=1 * KIB,
        target_file_bytes=1 * KIB,
        level1_target_bytes=2 * KIB,
        level_size_multiplier=4,
        block_bytes=256,
        block_cache_bytes=8 * KIB,
    )
    defaults.update(kwargs)
    return LsmDB.create("NNNTQ", DBOptions(**defaults))


class TestScanBoundaries:
    def _loaded_db(self, n=600):
        db = make_db()
        for i in range(n):
            db.put(f"key{i:05d}".encode(), f"value{i}".encode())
        db.flush()
        assert db.manifest.file_count() > 5  # spans many files
        return db

    def test_scan_crosses_file_boundaries(self):
        db = self._loaded_db()
        result = db.scan(b"key00050", 100)
        keys = [k for k, _ in result.items]
        assert keys == [f"key{i:05d}".encode() for i in range(50, 150)]

    def test_scan_whole_keyspace(self):
        db = self._loaded_db(300)
        result = db.scan(b"", 1000)
        assert len(result.items) == 300
        keys = [k for k, _ in result.items]
        assert keys == sorted(keys)

    def test_scan_from_middle_of_file(self):
        db = self._loaded_db()
        result = db.scan(b"key00123", 5)
        assert [k for k, _ in result.items] == [
            f"key{i:05d}".encode() for i in range(123, 128)
        ]

    def test_scan_past_end_is_empty(self):
        db = self._loaded_db(300)
        assert db.scan(b"zzz", 10).items == []

    def test_scan_latency_independent_of_distant_files(self):
        # A short scan near the end of the keyspace must not pay for
        # reading blocks of every preceding file (lazy chaining).
        db = self._loaded_db(1200)
        short = db.scan(b"key01190", 5)
        assert len(short.items) == 5
        # Cost bounded by a handful of block reads per level, not
        # hundreds across the whole tree.
        assert short.latency_usec < 20_000

    def test_scan_merges_updates_across_levels(self):
        db = self._loaded_db(200)
        # Overwrite a band of keys; new versions start in the memtable.
        for i in range(90, 110):
            db.put(f"key{i:05d}".encode(), b"NEW")
        result = db.scan(b"key00085", 30)
        values = dict(result.items)
        assert values[b"key00095"] == b"NEW"
        assert values[b"key00085"] == b"value85"

    def test_scan_excludes_deleted_band(self):
        db = self._loaded_db(200)
        for i in range(100, 120):
            db.delete(f"key{i:05d}".encode())
        db.flush()
        result = db.scan(b"key00095", 10)
        keys = [k for k, _ in result.items]
        assert f"key{100:05d}".encode() not in keys
        assert keys[0] == b"key00095"

    def test_random_scans_match_model(self):
        db = make_db()
        rng = random.Random(31)
        model = {}
        for _ in range(2500):
            key = f"key{rng.randrange(400):05d}".encode()
            value = rng.randbytes(15)
            db.put(key, value)
            model[key] = value
        for _ in range(60):
            start = f"key{rng.randrange(400):05d}".encode()
            count = rng.randrange(1, 30)
            got = db.scan(start, count).items
            expected = sorted((k, v) for k, v in model.items() if k >= start)[:count]
            assert got == expected


# ----------------------------------------------------------------------
# Twin DBs: LsmDB.scan vs the generator-chain oracle
# ----------------------------------------------------------------------
TWIN_KEYS = 160


def twin_key(i):
    return f"key{i:04d}".encode()


def scan_start(i, keys=TWIN_KEYS):
    """Start keys before the first key, on a key, between keys, past the end."""
    if i < 0:
        return b""
    if i >= 2 * keys:
        return b"zzz"
    return twin_key(i // 2) + (b"" if i % 2 == 0 else b"\x00")


def books(db):
    """Everything a scan may move on the simulated side."""
    cache = db.cache.stats
    return {
        "cache": {bt.value: (t.hits, t.misses) for bt, t in cache.tallies.items()},
        "cache_churn": (cache.insertions, cache.evictions, db.cache.used_bytes),
        "devices": {
            tier.name: dataclasses.asdict(tier.device.stats) for tier in db.layout.tiers
        },
        "metrics": db.metrics.snapshot(),
        "user_scans": db.stats.user_scans,
        "clock": db.clock.now,
    }


class ScanTwins:
    """One op sequence applied to two DBs; scans go engine vs oracle."""

    def __init__(self, shape, keys=TWIN_KEYS):
        # The cache holds ~16 of the tree's blocks: scans hit, miss and evict.
        options = dict(compaction_shape=shape, block_cache_bytes=4 * KIB)
        self.engine = make_db(**options)
        self.oracle = make_db(**options)
        self.keys = keys
        self.model = {}

    def put(self, key, value):
        for db in (self.engine, self.oracle):
            db.clock.advance(db.put(key, value).latency_usec)
        self.model[key] = value

    def delete(self, key):
        for db in (self.engine, self.oracle):
            db.clock.advance(db.delete(key).latency_usec)
        self.model.pop(key, None)

    def flush(self):
        self.engine.flush()
        self.oracle.flush()

    def preload(self, rounds, seed=7):
        """Overwrite the key space ``rounds`` times, so versions shadow
        each other across levels, then tombstone one band."""
        rng = random.Random(seed)
        for _ in range(rounds):
            order = list(range(self.keys))
            rng.shuffle(order)
            for i in order:
                self.put(twin_key(i), rng.randbytes(rng.randrange(1, 40)))
        for i in range(40, 60):
            self.delete(twin_key(i))

    def scan(self, start_key, count, *, attributed=False):
        engine_ctx, oracle_ctx = OpContext("scan"), OpContext("scan")
        with attributing(engine_ctx) if attributed else nullcontext():
            got = self.engine.scan(start_key, count)
        with attributing(oracle_ctx) if attributed else nullcontext():
            want = reference_scan(self.oracle, start_key, count)
        assert got.items == want.items
        assert got.latency_usec == want.latency_usec  # bit for bit, no approx
        expected = sorted((k, v) for k, v in self.model.items() if k >= start_key)
        assert got.items == expected[:count]
        assert all(type(k) is bytes and type(v) is bytes for k, v in got.items)
        if attributed:
            assert engine_ctx.events == oracle_ctx.events
            assert engine_ctx.parts == oracle_ctx.parts
        for db, result in ((self.engine, got), (self.oracle, want)):
            db.clock.advance(result.latency_usec)
        assert books(self.engine) == books(self.oracle)
        return got


twin_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, TWIN_KEYS - 1), st.binary(min_size=1, max_size=40)),
        # A band of tombstones, 1..16 keys wide.
        st.tuples(st.just("delete"), st.integers(0, TWIN_KEYS - 1), st.integers(1, 16)),
        st.tuples(st.just("flush"), st.just(0), st.just(0)),
        st.tuples(st.just("scan"), st.integers(-1, 2 * TWIN_KEYS + 1), st.integers(0, 60)),
    ),
    min_size=1,
    max_size=60,
)


class TestScanMatchesGeneratorChainOracle:
    @pytest.mark.parametrize("shape", ["leveling", "tiering"])
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=twin_ops)
    def test_twins_agree_after_every_scan(self, shape, ops):
        twins = ScanTwins(shape)
        twins.preload(rounds=3)
        scans = 0
        for op, i, arg in ops:
            if op == "put":
                twins.put(twin_key(i), arg)
            elif op == "delete":
                for j in range(i, min(i + arg, TWIN_KEYS)):
                    twins.delete(twin_key(j))
            elif op == "flush":
                twins.flush()
            else:
                twins.scan(scan_start(i), arg, attributed=scans % 2 == 1)
                scans += 1
        # Whatever the ops did: the edges, then the whole key space
        # (every file boundary of every run).
        twins.scan(b"", 0)
        twins.scan(b"zzz", 10)
        twins.scan(b"", 10 * TWIN_KEYS, attributed=True)

    @pytest.mark.parametrize("shape", ["leveling", "tiering", "lazy-leveling"])
    def test_deep_tree_cold_and_cached(self, shape):
        keys = 600
        twins = ScanTwins(shape, keys)
        twins.preload(rounds=3)
        manifest = twins.engine.manifest
        # Several sorted runs to merge, each many files long.
        assert sum(manifest.run_count(level) for level in range(5)) >= 3
        assert manifest.file_count() > 30
        rng = random.Random(11)
        for db in (twins.engine, twins.oracle):
            db.cache.clear()
        for n in range(80):
            start = scan_start(rng.randrange(-1, 2 * keys + 2), keys)
            count = rng.randrange(0, 50)
            cold = twins.scan(start, count, attributed=n % 3 == 0)
            # Again at once: the blocks the first pass loaded are now
            # cached (the cold pass served every one from a fresh view).
            assert twins.scan(start, count).items == cold.items
        stats = twins.engine.cache.stats
        data = stats.tallies[BlockType.DATA]
        assert data.hits and data.misses and stats.evictions


def test_short_scans_decode_no_record_and_no_block(monkeypatch):
    """The deterministic form of the lazy-cursor claim: a scan builds no
    ``Record`` through ``decode_from`` and materializes no block's record
    list, however many levels it merges."""
    db = make_db()
    rng = random.Random(3)
    for _ in range(3):
        order = list(range(600))
        rng.shuffle(order)
        for i in order:
            db.put(f"key{i:05d}".encode(), rng.randbytes(30))
    assert db.options.num_levels == 5
    assert all(db.manifest.file_count(level) for level in range(5))

    calls = {"decode_from": 0, "records": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Record, "decode_from", staticmethod(counted("decode_from", Record.decode_from)))
    monkeypatch.setattr(DataBlock, "records", counted("records", DataBlock.records))
    returned = 0
    for _ in range(50):
        start = f"key{rng.randrange(600):05d}".encode()
        returned += len(db.scan(start, rng.randrange(1, 30)).items)
    assert returned > 500
    assert calls == {"decode_from": 0, "records": 0}
    # The counters do count: a point read decodes its one candidate,
    # and a full decode of one block goes through records().
    assert db.get(b"key00300").found
    table = db.manifest.files(4)[0]
    assert DataBlock(table.file.data[: table._index_lengths[0]]).records()
    assert calls["decode_from"] > 1 and calls["records"] == 1


def _deep_db():
    db = make_db()
    rng = random.Random(3)
    for _ in range(3):
        order = list(range(600))
        rng.shuffle(order)
        for i in order:
            db.put(f"key{i:05d}".encode(), rng.randbytes(30))
    assert all(db.manifest.file_count(level) for level in range(5))
    return db


def test_a_fetched_block_is_a_window_over_the_file_bytes():
    db = _deep_db()
    table = db.manifest.files(4)[0]
    pos = len(table._index_keys) // 2
    offset = table._index_offsets[pos]
    block, _ = table._data_block(offset, table._index_lengths[pos], db.cache)
    assert block.buf is table.file.data and block.base == offset
    key = block._key_at(0)
    assert type(key) is bytes and db.get(key).found
    assert type(db.scan(key, 1).items[0][1]) is bytes


def test_a_cold_scan_enters_the_cache_once_per_block_fetch():
    """Counted with ``sys.setprofile``: a data-block fetch is one call into
    ``BlockCache``, calls no closure of the engine's, and no key or value a scan
    lands on goes through ``memoryview.tobytes``."""
    import os
    import sys

    import repro

    package = os.path.dirname(repro.__file__)
    db = _deep_db()
    db.cache.clear()
    data = db.cache.stats.tallies[BlockType.DATA]
    counts = {"entries": 0, "closures": 0, "tobytes": 0}

    def profiler(frame, event, arg):
        if event == "call":
            qualname = frame.f_code.co_qualname
            if "<locals>" in qualname and frame.f_code.co_filename.startswith(package):
                counts["closures"] += 1
            elif qualname.startswith("BlockCache.") and not (
                frame.f_back.f_code.co_qualname.startswith("BlockCache.")
            ):
                counts["entries"] += 1
        elif event == "c_call" and getattr(arg, "__qualname__", "") == "memoryview.tobytes":
            counts["tobytes"] += 1

    fetches = data.hits + data.misses
    sys.setprofile(profiler)
    try:
        items = db.scan(b"key00100", 60).items
    finally:
        sys.setprofile(None)
    fetches = data.hits + data.misses - fetches
    assert len(items) == 60 and data.misses > 5
    assert counts == {"entries": fetches, "closures": 0, "tobytes": 0}
