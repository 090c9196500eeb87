"""Tests for the LRU block cache."""

import pytest

from repro.lsm.block_cache import BlockCache, BlockType


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
        removed = cache.invalidate_file(1)
        assert removed == 2
        assert len(cache) == 1
        assert cache.used_bytes == 10

    def test_invalidate_missing_file_is_noop(self):
        cache = BlockCache(1000)
        assert cache.invalidate_file(99) == 0

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
        cache.invalidate_file(1)
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
    """The pre-bound probe-path counters keep the general path's books."""

    def test_data_block_hit_miss_counts_nothing(self):
        cache = BlockCache(1024)
        assert cache.data_block_hit(1, 0, bytes.upper) is None
        assert cache.stats.hits == {}
        assert cache.stats.misses == {}
        assert len(cache) == 0

    def test_data_block_hit_matches_get_or_load_decoded(self):
        # Same block sequence through both hit paths: latencies, LRU
        # order, stats and the next eviction victim must be identical.
        blocks = [(1, 0, b"a" * 80), (1, 80, b"b" * 120), (2, 0, b"c" * 60)]
        touches = [(1, 0), (2, 0), (1, 0), (1, 80), (2, 0)]
        general, fast = BlockCache(300), BlockCache(300)
        for cache in (general, fast):
            for file_id, offset, data in blocks:
                cache.get_or_load_decoded(
                    file_id, offset, BlockType.DATA, loader_for(data), bytes.upper
                )
        for file_id, offset in touches:
            expected = general.get_or_load_decoded(
                file_id, offset, BlockType.DATA, loader_for(b"unused"), bytes.upper
            )
            assert fast.data_block_hit(file_id, offset, bytes.upper) == expected
        assert list(fast._entries) == list(general._entries)
        assert fast.stats.hits == general.stats.hits == {BlockType.DATA: len(touches)}
        assert fast.stats.misses == general.stats.misses
        for cache in (general, fast):
            cache.get_or_load_decoded(
                3, 0, BlockType.DATA, loader_for(b"d" * 100), bytes.upper
            )
        assert list(fast._entries) == list(general._entries)
        assert fast.stats.evictions == general.stats.evictions == 1

    def test_data_block_hit_decodes_lazily_once(self):
        cache = BlockCache(1024)
        cache.get_or_load(1, 0, BlockType.DATA, loader_for(b"abc"))
        decodes = []

        def decoder(data):
            decodes.append(1)
            return data.upper()

        assert cache.data_block_hit(1, 0, decoder)[0] == b"ABC"
        assert cache.data_block_hit(1, 0, decoder)[0] == b"ABC"
        assert len(decodes) == 1

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
        cache.get_or_load(1, 16, BlockType.DATA, loader_for(b"d" * 8))
        looked_up(BlockType.DATA)
        for _ in range(4):
            assert cache.data_block_hit(1, 16, bytes.upper) is not None
            looked_up(BlockType.DATA)
        assert cache.data_block_hit(1, 999, bytes.upper) is None  # not a lookup

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
