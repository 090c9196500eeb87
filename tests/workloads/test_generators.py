"""Tests for key-distribution generators."""

import random
from collections import Counter

import pytest

from repro.common.rng import fnv1a_64
from repro.errors import ConfigError
from repro.workloads.zipfian import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    make_generator,
)


class TestUniform:
    def test_bounds(self):
        gen = UniformGenerator(100, random.Random(1))
        samples = [gen.next_index() for _ in range(2000)]
        assert min(samples) >= 0
        assert max(samples) < 100

    def test_roughly_uniform(self):
        gen = UniformGenerator(10, random.Random(2))
        counts = Counter(gen.next_index() for _ in range(10_000))
        assert all(800 < counts[i] < 1200 for i in range(10))

    def test_rejects_empty_keyspace(self):
        with pytest.raises(ConfigError):
            UniformGenerator(0, random.Random(1))


class TestZipfian:
    def test_bounds(self):
        gen = ZipfianGenerator(1000, 0.99, random.Random(3))
        samples = [gen.next_index() for _ in range(5000)]
        assert min(samples) >= 0
        assert max(samples) < 1000

    def test_rank_zero_is_hottest(self):
        gen = ZipfianGenerator(1000, 0.99, random.Random(4))
        counts = Counter(gen.next_index() for _ in range(20_000))
        assert counts[0] == max(counts.values())
        assert counts[0] > counts.get(100, 0)

    def test_higher_theta_is_more_skewed(self):
        def top_share(theta):
            gen = ZipfianGenerator(1000, theta, random.Random(5))
            counts = Counter(gen.next_index() for _ in range(20_000))
            return sum(counts[i] for i in range(10)) / 20_000

        assert top_share(1.4) > top_share(0.6)

    def test_frequency_matches_zipf_law(self):
        theta = 0.99
        gen = ZipfianGenerator(100, theta, random.Random(6))
        counts = Counter(gen.next_index() for _ in range(100_000))
        # f(0)/f(9) should be about 10^theta.
        ratio = counts[0] / counts[9]
        assert ratio == pytest.approx(10**theta, rel=0.3)

    def test_invalid_theta_rejected(self):
        with pytest.raises(ConfigError):
            ZipfianGenerator(100, 1.0, random.Random(1))
        with pytest.raises(ConfigError):
            ZipfianGenerator(100, 0.0, random.Random(1))


class TestScrambledZipfian:
    def test_hot_keys_spread_across_keyspace(self):
        gen = ScrambledZipfianGenerator(10_000, 0.99, random.Random(7))
        counts = Counter(gen.next_index() for _ in range(30_000))
        top10 = [key for key, _ in counts.most_common(10)]
        # Hot keys should not all cluster at the low end of the range.
        assert max(top10) > 5000

    def test_still_skewed(self):
        gen = ScrambledZipfianGenerator(1000, 0.99, random.Random(8))
        counts = Counter(gen.next_index() for _ in range(20_000))
        top_share = sum(count for _, count in counts.most_common(10)) / 20_000
        assert top_share > 0.2

    def test_deterministic_for_seed(self):
        a = ScrambledZipfianGenerator(1000, 0.99, random.Random(9))
        b = ScrambledZipfianGenerator(1000, 0.99, random.Random(9))
        assert [a.next_index() for _ in range(50)] == [b.next_index() for _ in range(50)]


    def test_index_is_the_rank_hash_and_the_table_stays_inside_the_key_space(self):
        n_keys = 500
        gen = ScrambledZipfianGenerator(n_keys, 0.99, random.Random(11))
        ranks = ZipfianGenerator(n_keys, 0.99, random.Random(11))
        for _ in range(5_000):  # far more draws than keys: repeats hit the table
            rank = ranks.next_index()
            assert gen.next_index() == fnv1a_64(rank.to_bytes(8, "little")) % n_keys
        assert len(gen._index_of_rank) <= n_keys


class TestLatest:
    def test_most_recent_is_hottest(self):
        gen = LatestGenerator(1000, 0.99, random.Random(10))
        counts = Counter(gen.next_index() for _ in range(20_000))
        assert counts[999] == max(counts.values())

    def test_note_insert_shifts_hotspot(self):
        gen = LatestGenerator(1000, 0.99, random.Random(11))
        for _ in range(50):
            gen.note_insert()
        counts = Counter(gen.next_index() for _ in range(20_000))
        assert counts[1049] == max(counts.values())

    def test_bounds_after_inserts(self):
        gen = LatestGenerator(10, 0.99, random.Random(12))
        gen.note_insert()
        samples = [gen.next_index() for _ in range(1000)]
        assert all(0 <= s <= 10 for s in samples)


class TestFactory:
    def test_known_names(self):
        rng = random.Random(13)
        assert isinstance(make_generator("uniform", 10, 0.99, rng), UniformGenerator)
        assert isinstance(make_generator("zipfian", 10, 0.99, rng), ScrambledZipfianGenerator)
        assert isinstance(make_generator("latest", 10, 0.99, rng), LatestGenerator)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_generator("gaussian", 10, 0.99, random.Random(1))


class TestZetaCache:
    def test_cached_value_is_the_exact_direct_sum(self):
        from repro.workloads.zipfian import _zeta

        _zeta.cache_clear()
        cold = _zeta(5000, 0.99)
        direct = float(sum(1.0 / (i**0.99) for i in range(1, 5001)))
        assert cold == direct
        assert _zeta(5000, 0.99) == cold  # warm hit, identical float

    def test_sampling_identical_with_warm_cache(self):
        from repro.workloads.zipfian import _zeta

        _zeta.cache_clear()
        cold = ZipfianGenerator(10_000, 0.99, random.Random(42))
        cold_draws = [cold.next_index() for _ in range(500)]
        warm = ZipfianGenerator(10_000, 0.99, random.Random(42))
        warm_draws = [warm.next_index() for _ in range(500)]
        assert cold_draws == warm_draws
