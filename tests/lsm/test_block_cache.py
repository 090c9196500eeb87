"""Tests for the LRU block cache."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import MIB, SimClock
from repro.lsm.block_cache import BlockCache, BlockType
from repro.storage import NVM_SPEC, StorageBackend, StorageTier


def backend_with(*payloads):
    """A backend holding one file per payload (ids 1, 2, ...)."""
    clock = SimClock()
    backend = StorageBackend(clock)
    tier = StorageTier("nvm", NVM_SPEC, 64 * MIB, clock)
    return backend, [backend.create_file(tier, payload) for payload in payloads]


def counted_upper(decodes):
    """A data-block decoder over a window of the file's bytes."""
    def decoder(buf, base, length):
        decodes.append(1)
        return buf[base : base + length].upper()
    return decoder


def loader_for(data, latency=100.0, calls=None):
    def loader():
        if calls is not None:
            calls.append(1)
        return data, latency
    return loader


class TestBlockCache:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(-1)

    def test_miss_then_hit(self):
        cache = BlockCache(1024)
        calls = []
        data, miss_latency = cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"x" * 100, 100.0, calls))
        assert data == b"x" * 100
        assert miss_latency == 100.0
        data, hit_latency = cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"ignored", 100.0, calls))
        assert data == b"x" * 100
        assert hit_latency < miss_latency  # DRAM speed
        assert len(calls) == 1

    def test_stats_by_type(self):
        cache = BlockCache(1024)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"d"))
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"d"))
        cache.get_or_load(1, 8, BlockType.FILTER, loader_for(b"f"))
        assert cache.stats.hit_rate(BlockType.DATA) == pytest.approx(0.5)
        assert cache.stats.hit_rate(BlockType.FILTER) == 0.0
        assert cache.stats.hit_rate() == pytest.approx(1 / 3)

    def test_lru_eviction(self):
        cache = BlockCache(200)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"a" * 100))
        cache.get_or_load(1, 100, BlockType.DATA, loader_for(b"b" * 100))
        # Touch block (1,0) so (1,100) is the LRU victim.
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"a" * 100))
        cache.get_or_load(1, 200, BlockType.DATA, loader_for(b"c" * 100))
        calls = []
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"a" * 100, 100.0, calls))
        assert calls == []  # still cached
        cache.get_or_load(1, 100, BlockType.DATA, loader_for(b"b" * 100, 100.0, calls))
        assert calls == [1]  # was evicted

    def test_zero_capacity_disables_caching(self):
        cache = BlockCache(0)
        calls = []
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"x", 100.0, calls))
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"x", 100.0, calls))
        assert len(calls) == 2
        assert cache.used_bytes == 0

    def test_oversized_block_not_cached(self):
        cache = BlockCache(10)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"x" * 100))
        assert len(cache) == 0

    def test_used_bytes_tracks_contents(self):
        cache = BlockCache(1000)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"x" * 300))
        cache.get_or_load(2, 0, BlockType.DATA, loader_for(b"y" * 200))
        assert cache.used_bytes == 500

    def test_invalidate_file(self):
        cache = BlockCache(1000)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"a" * 10))
        cache.get_or_load(1, 10, BlockType.DATA, loader_for(b"b" * 10))
        cache.get_or_load(2, 0, BlockType.DATA, loader_for(b"c" * 10))
        # The file's block offsets, as its index gives them; 20 was never cached.
        removed = cache.invalidate_file(1, [0, 10, 20])
        assert removed == 2
        assert len(cache) == 1
        assert cache.used_bytes == 10
        cache.check_invariants([2])

    def test_invalidate_missing_file_is_noop(self):
        cache = BlockCache(1000)
        assert cache.invalidate_file(99, [0, 10]) == 0

    def test_clear(self):
        cache = BlockCache(1000)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"a" * 10))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_eviction_counter(self):
        cache = BlockCache(100)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"a" * 100))
        cache.get_or_load(2, 0, BlockType.DATA, loader_for(b"b" * 100))
        assert cache.stats.evictions == 1


class TestDecodedCache:
    """get_or_load_decoded: same simulated accounting, zero re-parsing."""

    def test_hit_skips_decoder(self):
        cache = BlockCache(1024)
        decodes = []

        def decoder(data):
            decodes.append(1)
            return data.upper()

        for _ in range(3):
            decoded, _ = cache.get_or_load_decoded(
                1, 0, BlockType.DATA, loader_for(b"abc"), decoder
            )
            assert decoded == b"ABC"
        assert len(decodes) == 1
        assert cache.stats.hits[BlockType.DATA] == 2
        assert cache.stats.misses[BlockType.DATA] == 1

    def test_accounting_identical_to_raw_cache(self):
        raw = BlockCache(1024)
        decoded = BlockCache(1024)
        data = b"x" * 100
        _, miss_raw = raw.get_or_load(1, 0, BlockType.DATA, loader_for(data))
        _, miss_dec = decoded.get_or_load_decoded(
            1, 0, BlockType.DATA, loader_for(data), bytes.upper
        )
        assert miss_raw == miss_dec
        _, hit_raw = raw.get_or_load(1, 0, BlockType.DATA, loader_for(data))
        _, hit_dec = decoded.get_or_load_decoded(
            1, 0, BlockType.DATA, loader_for(data), bytes.upper
        )
        assert hit_raw == hit_dec
        assert raw.used_bytes == decoded.used_bytes
        assert raw.stats.hits == decoded.stats.hits
        assert raw.stats.misses == decoded.stats.misses

    def test_raw_hit_then_decoded_hit_parses_lazily(self):
        cache = BlockCache(1024)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"abc"))
        decodes = []

        def decoder(data):
            decodes.append(1)
            return data.upper()

        decoded, _ = cache.get_or_load_decoded(
            1, 0, BlockType.DATA, loader_for(b"abc"), decoder
        )
        assert decoded == b"ABC"
        assert len(decodes) == 1  # parsed on first decoded access, not before
        assert cache.stats.hits[BlockType.DATA] == 1

    def test_invalidate_drops_decoded_form(self):
        cache = BlockCache(1024)
        decodes = []

        def decoder(data):
            decodes.append(1)
            return data

        cache.get_or_load_decoded(1, 0, BlockType.DATA, loader_for(b"abc"), decoder)
        cache.invalidate_file(1, [0])
        cache.get_or_load_decoded(1, 0, BlockType.DATA, loader_for(b"abc"), decoder)
        assert len(decodes) == 2

    def test_zero_capacity_decodes_every_time_but_still_works(self):
        cache = BlockCache(0)
        decodes = []

        def decoder(data):
            decodes.append(1)
            return data

        for _ in range(2):
            decoded, latency = cache.get_or_load_decoded(
                1, 0, BlockType.DATA, loader_for(b"abc", latency=42.0), decoder
            )
            assert decoded == b"abc"
            assert latency == 42.0
        assert len(decodes) == 2
        assert len(cache) == 0

    def test_eviction_drops_raw_and_decoded_together(self):
        cache = BlockCache(100)
        decodes = []

        def decoder(data):
            decodes.append(1)
            return data

        cache.get_or_load_decoded(1, 0, BlockType.DATA, loader_for(b"a" * 60), decoder)
        cache.get_or_load_decoded(1, 1, BlockType.DATA, loader_for(b"b" * 60), decoder)
        assert cache.stats.evictions == 1
        cache.get_or_load_decoded(1, 0, BlockType.DATA, loader_for(b"a" * 60), decoder)
        assert len(decodes) == 3  # first entry was evicted wholesale


class TestProbePathAccounting:
    """The pre-bound fetch-path counters keep the general path's books."""

    def test_data_block_hit_miss_counts_nothing(self):
        # A data_block hit counts one data hit and nothing of a miss: no
        # miss, no insertion, no device read, no decode.
        backend, (file,) = backend_with(b"abcdefgh" * 4)
        cache = BlockCache(1024)
        decodes = []
        cache.data_block(backend, file, 8, 8, counted_upper(decodes))
        device = file.tier.device.stats
        before = (device.bytes_read_foreground, cache.stats.insertions, len(decodes))
        block, latency = cache.data_block(backend, file, 8, 8, counted_upper(decodes))
        assert block == b"ABCDEFGH"
        assert latency < 1.0  # one DRAM access
        assert cache.stats.hits == {BlockType.DATA: 1}
        assert cache.stats.misses == {BlockType.DATA: 1}
        assert (device.bytes_read_foreground, cache.stats.insertions, len(decodes)) == before

    def test_data_block_hit_matches_get_or_load_decoded(self):
        # The same block sequence through data_block and through the
        # loader form: decoded blocks, latencies, LRU order, stats,
        # device charges and the eviction victims must be identical.
        payloads = [b"a" * 80 + b"b" * 120, b"c" * 60 + b"d" * 100]
        blocks = {(1, 0): 80, (1, 80): 120, (2, 0): 60, (2, 60): 100}
        fetches = [(1, 0), (1, 80), (2, 0), (1, 0), (2, 60), (1, 80), (2, 0), (1, 0)]
        general_backend, general_files = backend_with(*payloads)
        fast_backend, fast_files = backend_with(*payloads)
        general, fast = BlockCache(300), BlockCache(300)
        for file_id, offset in fetches:
            length = blocks[file_id, offset]
            file = general_files[file_id - 1]

            def loader(file=file, offset=offset, length=length):
                return general_backend.read(file, offset, length)

            expected = general.get_or_load_decoded(
                file_id, offset, BlockType.DATA, loader, lambda view: view.tobytes().upper()
            )
            got = fast.data_block(
                fast_backend, fast_files[file_id - 1], offset, length, counted_upper([])
            )
            assert got == expected
            assert list(fast._entries) == list(general._entries)
        assert fast.stats.hits == general.stats.hits != {}
        assert fast.stats.misses == general.stats.misses
        assert fast.stats.evictions == general.stats.evictions > 0
        assert fast.used_bytes == general.used_bytes
        assert fast_backend.stats == general_backend.stats
        assert fast_files[0].tier.device.stats == general_files[0].tier.device.stats

    def test_data_block_hit_decodes_lazily_once(self):
        backend, (file,) = backend_with(b"xyzabc")
        cache = BlockCache(1024)
        cache.get_or_load(1, 3, BlockType.DATA, lambda: backend.read(file, 3, 3))
        decodes = []
        assert cache.data_block(backend, file, 3, 3, counted_upper(decodes))[0] == b"ABC"
        assert cache.data_block(backend, file, 3, 3, counted_upper(decodes))[0] == b"ABC"
        assert len(decodes) == 1

    def test_data_block_miss_charges_one_read_to_the_data_component(self):
        from repro.obs.attribution import OpContext, attributing

        backend, (file,) = backend_with(b"k" * 4096)
        cache = BlockCache(1 << 20)
        ctx = OpContext("read")
        with attributing(ctx):
            block, latency = cache.data_block(backend, file, 1024, 512, counted_upper([]))
        assert block == b"K" * 512
        assert file.tier.device.stats.bytes_read_foreground == 512
        assert file.tier.device.stats.reads == 1
        assert sum(ctx.parts.values()) == pytest.approx(latency)
        # The device time lands on the data component, not the default "io".
        assert "data/nvm" in ctx.parts and not any(part.startswith("io/") for part in ctx.parts)
        cache.check_invariants([file.file_id])
        with pytest.raises(AssertionError, match="dead files"):
            cache.check_invariants([])

    def test_every_lookup_is_one_hit_or_one_miss_per_type(self):
        from repro.obs import MetricsRegistry

        cache = BlockCache(1024)
        registry = MetricsRegistry()
        cache.bind_observability(registry)
        lookups = dict.fromkeys(BlockType, 0)

        def looked_up(block_type):
            lookups[block_type] += 1

        for block_type, offset in ((BlockType.FILTER, 0), (BlockType.INDEX, 8)):
            for _ in range(2):  # miss, then hit
                cache.get_or_load_decoded(
                    1, offset, block_type, loader_for(b"x" * 8), bytes.upper
                )
                looked_up(block_type)
        for _ in range(3):
            cache.filter_resident_hit()
            looked_up(BlockType.FILTER)
        cache.index_resident_hit()
        looked_up(BlockType.INDEX)
        cache.record_resident_hit(BlockType.INDEX)
        looked_up(BlockType.INDEX)
        backend, (file,) = backend_with(b"d" * 32)
        for _ in range(5):  # miss, then four hits
            cache.data_block(backend, file, 16, 8, counted_upper([]))
            looked_up(BlockType.DATA)

        stats = cache.stats
        for block_type in BlockType:
            hits = stats.hits.get(block_type, 0)
            misses = stats.misses.get(block_type, 0)
            assert hits + misses == lookups[block_type], block_type
            assert registry.value("cache.hits", type=block_type.value) == hits
            assert registry.value("cache.misses", type=block_type.value) == misses
        assert stats.hits == {BlockType.DATA: 4, BlockType.INDEX: 3, BlockType.FILTER: 4}
        assert stats.misses == dict.fromkeys(BlockType, 1)
        assert stats.hit_rate(BlockType.DATA) == pytest.approx(0.8)
        assert stats.hit_rate() == pytest.approx(11 / 14)


SHAPES = ("leveling", "tiering", "lazy-leveling")


def _system(name, shape):
    from repro.baselines import MutantDB, MutantOptions, RocksDBLike
    from repro.common import KIB
    from repro.core import PrismDB, PrismOptions
    from repro.lsm import DBOptions

    options = DBOptions(
        memtable_bytes=1 * KIB, target_file_bytes=1 * KIB, level1_target_bytes=2 * KIB,
        level_size_multiplier=3, block_bytes=256, block_cache_bytes=2 * KIB,
        compaction_shape=shape, l0_compaction_trigger=3,
    )
    if name == "rocksdb":
        return RocksDBLike.create("NNNTQ", options)
    if name == "prismdb":
        return PrismDB.create("NNNTQ", options, PrismOptions(tracker_capacity=32))
    return MutantDB.create("NNNTQ", options, MutantOptions(epoch_usec=200.0))


OPS = st.lists(
    st.tuples(st.sampled_from(["put", "put", "get", "scan", "delete"]), st.integers(0, 199)),
    min_size=600, max_size=1000,
)


class TestCacheInvariantsUnderCompaction:
    """After every compaction job the cache holds blocks of live files
    only, and ``used_bytes`` is what its entries hold — whatever mix of
    reads, scans and writes filled it, per system and compaction shape."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("system", ["rocksdb", "prismdb", "mutant"])
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=OPS)
    def test_check_invariants_after_every_job(self, system, shape, ops):
        db = _system(system, shape)
        execute = db.executor.execute

        def checked(job):
            execute(job)
            db.check_invariants()

        db.executor.execute = checked
        for op, i in ops:
            key = b"key%05d" % i
            if op == "put":
                result = db.put(key, b"v" * 60)
            elif op == "delete":
                result = db.delete(key)
            elif op == "get":
                result = db.get(key)
            else:
                result = db.scan(key, 20)
            db.clock.advance(result.latency_usec)
        db.check_invariants()
