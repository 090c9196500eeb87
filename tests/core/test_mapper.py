"""Tests for the CLOCK-distribution mapper and the pinning threshold."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.mapper import ClockDistributionMapper
from repro.errors import ConfigError


def mapper_with_counts(counts):
    mapper = ClockDistributionMapper(max_clock=len(counts) - 1)
    for clock, count in enumerate(counts):
        for _ in range(count):
            mapper.on_insert(clock)
    return mapper


class TestDistributionMaintenance:
    def test_rejects_bad_max_clock(self):
        with pytest.raises(ConfigError):
            ClockDistributionMapper(max_clock=0)

    def test_insert_evict_counts(self):
        mapper = ClockDistributionMapper()
        mapper.on_insert(1)
        mapper.on_insert(1)
        mapper.on_evict(1)
        assert mapper.counts() == [0, 1, 0, 0]
        assert mapper.total_tracked == 1

    def test_change_moves_between_buckets(self):
        mapper = ClockDistributionMapper()
        mapper.on_insert(1)
        mapper.on_change(1, 3)
        assert mapper.counts() == [0, 0, 0, 1]

    def test_evict_from_empty_bucket_fails(self):
        with pytest.raises(ValueError):
            ClockDistributionMapper().on_evict(2)

    def test_out_of_range_clock_rejected(self):
        mapper = ClockDistributionMapper()
        with pytest.raises(ValueError):
            mapper.on_insert(4)
        with pytest.raises(ValueError):
            mapper.on_insert(-1)

    def test_fractions_empty(self):
        assert ClockDistributionMapper().fractions() == [0.0] * 4

    def test_fractions_normalized(self):
        mapper = mapper_with_counts([5, 3, 1, 1])
        assert sum(mapper.fractions()) == pytest.approx(1.0)
        assert mapper.fractions()[0] == pytest.approx(0.5)


class TestPinningThreshold:
    def test_paper_example(self):
        # §4.2's example: 10% at clock 3, 10% at clock 2, 30% at clock 1,
        # 50% at clock 0; threshold 15% -> clock 3 always pins, clock 2
        # pins with weight 0.5, clocks 1/0 never pin.
        mapper = mapper_with_counts([50, 30, 10, 10])
        assert mapper.pin_probability(3, 0.15) == 1.0
        assert mapper.pin_probability(2, 0.15) == pytest.approx(0.5)
        assert mapper.pin_probability(1, 0.15) == 0.0
        assert mapper.pin_probability(0, 0.15) == 0.0

    def test_untracked_never_pins(self):
        mapper = mapper_with_counts([10, 10, 10, 10])
        assert mapper.pin_probability(-1, 0.5) == 0.0

    def test_zero_threshold_pins_nothing(self):
        mapper = mapper_with_counts([10, 10, 10, 10])
        assert mapper.pin_probability(3, 0.0) == 0.0

    def test_full_threshold_pins_everything(self):
        mapper = mapper_with_counts([10, 10, 10, 10])
        for clock in range(4):
            assert mapper.pin_probability(clock, 1.0) == 1.0

    def test_empty_distribution_pins_nothing(self):
        assert ClockDistributionMapper().pin_probability(3, 0.5) == 0.0

    def test_empty_bucket_probability_zero(self):
        mapper = mapper_with_counts([10, 0, 0, 10])
        assert mapper.pin_probability(2, 0.9) == 0.0

    def test_threshold_out_of_range(self):
        mapper = mapper_with_counts([1, 1, 1, 1])
        with pytest.raises(ValueError):
            mapper.pin_probability(3, 1.5)

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_expected_pinned_fraction_matches_threshold(self, counts, threshold):
        mapper = mapper_with_counts(counts)
        total = sum(counts)
        if total == 0:
            return
        expected = sum(
            counts[clock] * mapper.pin_probability(clock, threshold)
            for clock in range(4)
        )
        # The algorithm pins exactly threshold * total in expectation
        # (up to the entire tracked population).
        assert expected / total == pytest.approx(min(threshold, 1.0), abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_probability_monotonic_in_clock(self, threshold):
        mapper = mapper_with_counts([7, 13, 5, 9])
        probs = [mapper.pin_probability(clock, threshold) for clock in range(4)]
        assert probs == sorted(probs)  # higher clock -> higher pin chance


class TestCoinFlips:
    def test_should_pin_key_extremes(self):
        mapper = mapper_with_counts([0, 0, 0, 10])
        assert mapper.should_pin_key(b"k", 3, 1.0)
        assert not mapper.should_pin_key(b"k", 3, 0.0)

    def test_should_pin_key_deterministic(self):
        mapper = mapper_with_counts([50, 30, 10, 10])
        results = {mapper.should_pin_key(b"some-key", 2, 0.15) for _ in range(10)}
        assert len(results) == 1  # same key, same verdict, every time

    def test_should_pin_key_samples_at_expected_rate(self):
        mapper = mapper_with_counts([50, 30, 10, 10])
        pinned = sum(
            mapper.should_pin_key(f"key{i}".encode(), 2, 0.15) for i in range(4000)
        )
        assert 0.4 < pinned / 4000 < 0.6  # probability is 0.5

    def test_should_pin_untracked_false(self):
        mapper = mapper_with_counts([10, 10, 10, 10])
        assert not mapper.should_pin_key(b"k", -1, 0.9)
