"""Tests for the CLOCK tracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import fnv1a_64
from repro.core.mapper import ClockDistributionMapper
from repro.core.tracker import UNTRACKED, ClockTracker
from repro.errors import ConfigError


def make_tracker(capacity=8, clock_bits=2):
    mapper = ClockDistributionMapper(max_clock=(1 << clock_bits) - 1)
    return ClockTracker(capacity, mapper, clock_bits=clock_bits), mapper


class TestBasics:
    def test_rejects_bad_config(self):
        mapper = ClockDistributionMapper()
        with pytest.raises(ConfigError):
            ClockTracker(0, mapper)
        with pytest.raises(ConfigError):
            ClockTracker(8, mapper, clock_bits=0)
        with pytest.raises(ConfigError):
            ClockTracker(8, mapper, eviction_batch=0)

    def test_untracked_key(self):
        tracker, _ = make_tracker()
        assert tracker.clock_value(b"nope") == UNTRACKED
        assert not tracker.contains(b"nope")

    def test_first_read_inserts_with_clock_one(self):
        tracker, mapper = make_tracker()
        tracker.on_read(b"k", version=1)
        assert tracker.clock_value(b"k") == 1
        assert mapper.counts()[1] == 1
        assert tracker.stats.inserts == 1

    def test_same_version_reread_promotes_to_max(self):
        tracker, mapper = make_tracker()
        tracker.on_read(b"k", version=1)
        tracker.on_read(b"k", version=1)
        assert tracker.clock_value(b"k") == 3
        assert mapper.counts() == [0, 0, 0, 1]
        assert tracker.stats.version_hits == 1

    def test_version_change_resets_to_one(self):
        tracker, mapper = make_tracker()
        tracker.on_read(b"k", version=1)
        tracker.on_read(b"k", version=1)  # clock -> 3
        tracker.on_read(b"k", version=2)  # updated since: reset
        assert tracker.clock_value(b"k") == 1
        assert tracker.stats.version_mismatches == 1
        assert mapper.counts() == [0, 1, 0, 0]

    def test_is_full(self):
        tracker, _ = make_tracker(capacity=2)
        assert not tracker.is_full
        tracker.on_read(b"a", 1)
        tracker.on_read(b"b", 1)
        assert tracker.is_full


class TestEviction:
    def test_eviction_restores_capacity(self):
        tracker, mapper = make_tracker(capacity=4)
        for i in range(8):
            tracker.on_read(f"k{i}".encode(), 1)
        tracker.run_evictions()
        assert len(tracker) <= 4
        assert mapper.total_tracked == len(tracker)

    def test_eviction_prefers_cold_keys(self):
        tracker, _ = make_tracker(capacity=4)
        # Four hot keys (clock 3) and four cold ones (clock 1).
        for i in range(4):
            key = f"hot{i}".encode()
            tracker.on_read(key, 1)
            tracker.on_read(key, 1)
        for i in range(4):
            tracker.on_read(f"cold{i}".encode(), 1)
        tracker.run_evictions()
        survivors = [f"hot{i}".encode() for i in range(4) if tracker.contains(f"hot{i}".encode())]
        # The CLOCK hand decrements everyone, but cold (lower) keys reach
        # zero first; the hot majority must survive.
        assert len(survivors) >= 3

    def test_no_eviction_below_capacity(self):
        tracker, _ = make_tracker(capacity=8)
        tracker.on_read(b"a", 1)
        assert tracker.run_evictions() == 0
        assert tracker.contains(b"a")

    def test_bounded_steps_limit_work(self):
        tracker, _ = make_tracker(capacity=2)
        for i in range(10):
            tracker.on_read(f"k{i}".encode(), 1)
        tracker.run_evictions(max_steps=1)
        assert len(tracker) > 2  # one step cannot evict eight keys
        tracker.run_evictions()
        assert len(tracker) <= 2

    def test_distribution_consistent_after_churn(self):
        tracker, mapper = make_tracker(capacity=16)
        for i in range(200):
            tracker.on_read(f"k{i % 40}".encode(), i % 7)
            tracker.run_evictions()
        assert mapper.total_tracked == len(tracker)
        truth = tracker.snapshot_distribution()
        counts = mapper.counts()
        for clock in range(4):
            assert counts[clock] == truth.get(clock, 0)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_mapper_always_mirrors_tracker(self, reads):
        tracker, mapper = make_tracker(capacity=10)
        for key_index, version in reads:
            tracker.on_read(f"key{key_index}".encode(), version)
            tracker.run_evictions()
        assert mapper.total_tracked == len(tracker)
        truth = tracker.snapshot_distribution()
        for clock, count in enumerate(mapper.counts()):
            assert count == truth.get(clock, 0)


class TestVersionTag:
    def test_tag_is_six_bits(self):
        for version in (0, 1, 2**40, 2**56 - 1):
            assert 0 <= ClockTracker._version_tag(version) < 64

    def test_different_versions_usually_differ(self):
        tags = {ClockTracker._version_tag(v) for v in range(200)}
        assert len(tags) > 30  # 6-bit hash: most of the space is used

    @given(st.integers(0, 2**64 - 1))
    @settings(max_examples=500)
    def test_tag_is_the_low_bits_of_the_version_hash(self, version):
        expected = fnv1a_64(version.to_bytes(8, "little")) & 0x3F
        assert ClockTracker._version_tag(version) == expected

    @pytest.mark.parametrize("version", [0, 2**24 - 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_tag_at_the_edges(self, version):
        expected = fnv1a_64(version.to_bytes(8, "little")) & 0x3F
        assert ClockTracker._version_tag(version) == expected

    def test_tags_of_dense_seqnos_match_the_hash(self):
        expected = [fnv1a_64(v.to_bytes(8, "little")) & 0x3F for v in range(5_000)]
        assert [ClockTracker._version_tag(v) for v in range(5_000)] == expected
