"""Tests for the bloom filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import fnv1a_64
from repro.errors import CorruptionError
from repro.lsm.bloom import BloomFilter


class TestBloomFilter:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)
        with pytest.raises(ValueError):
            BloomFilter(64, 31)

    def test_added_keys_are_found(self):
        bloom = BloomFilter.for_capacity(100)
        keys = [f"key{i}".encode() for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter.for_capacity(100)
        assert not bloom.may_contain(b"anything")

    def test_false_positive_rate_is_low(self):
        bloom = BloomFilter.for_capacity(1000, bits_per_key=10)
        for i in range(1000):
            bloom.add(f"present{i}".encode())
        false_positives = sum(
            bloom.may_contain(f"absent{i}".encode()) for i in range(10_000)
        )
        # 10 bits/key gives ~1% FP; allow generous slack.
        assert false_positives < 400

    def test_theoretical_fp_rate(self):
        bloom = BloomFilter.for_capacity(1000, bits_per_key=10)
        assert bloom.false_positive_rate(0) == 0.0
        assert 0.001 < bloom.false_positive_rate(1000) < 0.03

    def test_encode_decode_round_trip(self):
        bloom = BloomFilter.for_capacity(50)
        for i in range(50):
            bloom.add(f"k{i}".encode())
        restored = BloomFilter.decode(bloom.encode())
        for i in range(50):
            assert restored.may_contain(f"k{i}".encode())

    def test_decode_truncated_fails(self):
        with pytest.raises(CorruptionError):
            BloomFilter.decode(b"\x01")

    def test_decode_size_mismatch_fails(self):
        encoded = BloomFilter.for_capacity(100).encode()
        with pytest.raises(CorruptionError):
            BloomFilter.decode(encoded[:-3])

    def test_size_bytes_matches_encoding(self):
        bloom = BloomFilter.for_capacity(100)
        assert bloom.size_bytes == len(bloom.encode())

    @given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=200))
    def test_no_false_negatives(self, keys):
        bloom = BloomFilter.for_capacity(len(keys))
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    @given(st.sets(st.binary(min_size=1, max_size=32), min_size=1, max_size=100))
    def test_no_false_negatives_after_round_trip(self, keys):
        bloom = BloomFilter.for_capacity(len(keys))
        for key in keys:
            bloom.add(key)
        restored = BloomFilter.decode(bloom.encode())
        assert all(restored.may_contain(key) for key in keys)


class TestBloomPreservation:
    """Pin down behavior the inlined probe loops must not change.

    The probe positions feed simulated latencies (a false positive costs
    a wasted block read), so these are preservation tests: bit-exact
    serialization, ``add_many`` equivalence, and an FP rate that stays
    near the theoretical bound for the 10 bits/key configuration.
    """

    def test_serialization_round_trip_is_bit_exact(self):
        bloom = BloomFilter.for_capacity(500)
        bloom.add_many(f"rt{i}".encode() for i in range(500))
        encoded = bloom.encode()
        assert BloomFilter.decode(encoded).encode() == encoded

    def test_add_many_equals_repeated_add(self):
        keys = [f"eq{i:05d}".encode() for i in range(1000)]
        one_by_one = BloomFilter.for_capacity(len(keys))
        for key in keys:
            one_by_one.add(key)
        bulk = BloomFilter.for_capacity(len(keys))
        bulk.add_many(keys)
        assert bulk.encode() == one_by_one.encode()

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=2000),
        bits_per_key=st.integers(min_value=1, max_value=20),  # 1..14 probes
        prior=st.lists(st.binary(min_size=1, max_size=8), max_size=20),
    )
    def test_bulk_build_is_bit_identical_to_repeated_add(self, keys, bits_per_key, prior):
        # Few keys hit the 64-bit floor; ``prior`` pre-populates both
        # filters, so the bulk build must OR into existing bits.
        one_by_one = BloomFilter.for_capacity(len(keys), bits_per_key)
        bulk = BloomFilter.for_capacity(len(keys), bits_per_key)
        for key in prior:
            one_by_one.add(key)
            bulk.add(key)
        for key in keys:
            one_by_one.add(key)
        bulk.add_many(keys)
        assert bulk.encode() == one_by_one.encode()
        assert all(bulk.may_contain(key) for key in keys + prior)

    def test_bulk_build_when_the_probe_delta_is_a_multiple_of_n_bits(self):
        # h2 % n_bits == 0: every probe of the key is the same bit, and
        # the slice store that serves every other key has no step.
        n_bits = 65
        key = next(
            key for key in (b"k%d" % i for i in range(100_000))
            if ((fnv1a_64(key) >> 32) | 1) % n_bits == 0
        )
        others = [b"other%d" % i for i in range(5)]
        one_by_one, bulk = BloomFilter(n_bits, 7), BloomFilter(n_bits, 7)
        for each in [key, *others]:
            one_by_one.add(each)
        bulk.add_many([key, *others])
        assert bulk.encode() == one_by_one.encode()
        assert len(set(bulk._positions(key))) == 1

    @pytest.mark.parametrize("bits_per_key", [4, 10])  # looped and unrolled probes
    def test_a_supplied_base_hash_answers_like_the_key(self, bits_per_key):
        present = [f"present{i:06d}".encode() for i in range(500)]
        absent = [f"absent{i:06d}".encode() for i in range(2_000)]
        bloom = BloomFilter.for_capacity(len(present), bits_per_key)
        bloom.add_many(present)
        for key in present + absent:
            assert bloom.may_contain(key, fnv1a_64(key)) == bloom.may_contain(key)
        assert all(bloom.may_contain(key, fnv1a_64(key)) for key in present)
        assert not all(bloom.may_contain(key, fnv1a_64(key)) for key in absent)

    def test_inlined_probes_match_positions_generator(self):
        bloom = BloomFilter.for_capacity(100)
        for i in range(100):
            key = f"pos{i}".encode()
            bloom.add(key)
            for pos in bloom._positions(key):
                assert bloom._bits[pos >> 3] & (1 << (pos & 7))

    def test_fp_rate_near_theoretical_at_10_bits_per_key(self):
        n_keys = 2000
        bloom = BloomFilter.for_capacity(n_keys, bits_per_key=10)
        bloom.add_many(f"present{i}".encode() for i in range(n_keys))
        trials = 20_000
        observed = sum(
            bloom.may_contain(f"absent{i}".encode()) for i in range(trials)
        ) / trials
        theoretical = bloom.false_positive_rate(n_keys)  # ~0.8% at 10 b/k
        assert observed <= theoretical * 2.0 + 0.002
        # A far *lower* rate than theory would mean the probes are not
        # actually independent-ish (e.g. all probes landing on one bit).
        assert observed >= theoretical / 4.0
