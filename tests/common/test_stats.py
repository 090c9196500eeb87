"""Tests for latency recording and counters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import CounterSet, LatencyRecorder, nearest_rank, throughput_kops
from repro.common.stats import LatencySummary


class TestLatencyRecorder:
    def test_empty_summary_is_zero(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert summary.mean == 0.0
        assert summary.p99 == 0.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_single_sample(self):
        rec = LatencyRecorder()
        rec.record(42.0)
        summary = rec.summary()
        assert summary.count == 1
        assert summary.mean == 42.0
        assert summary.p50 == 42.0
        assert summary.p99 == 42.0
        assert summary.maximum == 42.0

    def test_percentiles_on_uniform_ramp(self):
        rec = LatencyRecorder()
        for i in range(1, 101):
            rec.record(float(i))
        summary = rec.summary()
        assert summary.p50 == 50.0
        assert summary.p95 == 95.0
        assert summary.p99 == 99.0
        assert summary.maximum == 100.0
        assert summary.mean == pytest.approx(50.5)

    def test_percentile_method_bounds(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101.0)
        with pytest.raises(ValueError):
            rec.percentile(-1.0)

    def test_len_tracks_samples(self):
        rec = LatencyRecorder()
        assert len(rec) == 0
        rec.record(1.0)
        rec.record(2.0)
        assert len(rec) == 2

    def test_two_samples_nearest_rank(self):
        # Nearest-rank is ceil(p/100*n): rank 1 for p50 of two samples,
        # and any pct above 50 already needs the second sample.
        rec = LatencyRecorder()
        rec.record(1.0)
        rec.record(2.0)
        assert rec.percentile(50.0) == 1.0
        assert rec.percentile(50.1) == 2.0
        assert rec.percentile(99.0) == 2.0
        summary = rec.summary()
        assert summary.p50 == 1.0
        assert summary.p95 == 2.0

    def test_three_samples_nearest_rank(self):
        rec = LatencyRecorder()
        for v in (30.0, 10.0, 20.0):
            rec.record(v)
        # ceil(0.5*3)=2 -> the middle sample; ceil(0.95*3)=3 -> the max.
        assert rec.percentile(50.0) == 20.0
        assert rec.percentile(95.0) == 30.0
        assert rec.percentile(0.0) == 10.0
        assert rec.percentile(100.0) == 30.0

    def test_nearest_rank_function(self):
        assert nearest_rank([5.0], 50.0) == 5.0
        assert nearest_rank([1.0, 2.0], 50.0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0], 50.0) == 2.0
        # Percentile 0 clamps to rank 1, not rank 0.
        assert nearest_rank([1.0, 2.0, 3.0], 0.0) == 1.0

    def test_median_of_five_is_the_middle_sample(self):
        # Regression: the round()-based rank used banker's rounding, so
        # p50 of five samples hit round(2.5)=2 -> the *second* sample
        # instead of the median. ceil(2.5)=3 picks the true middle.
        rec = LatencyRecorder()
        for v in (10.0, 20.0, 30.0, 40.0, 50.0):
            rec.record(v)
        assert rec.percentile(50.0) == 30.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_summary_invariants(self, samples):
        rec = LatencyRecorder()
        for s in samples:
            rec.record(s)
        summary = rec.summary()
        assert summary.count == len(samples)
        assert min(samples) <= summary.p50 <= summary.maximum
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
        assert summary.maximum == max(samples)


class TestCounterSet:
    def test_default_is_zero(self):
        assert CounterSet().get("nope") == 0

    def test_add_accumulates(self):
        counters = CounterSet()
        counters.add("reads")
        counters.add("reads", 4)
        assert counters.get("reads") == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            CounterSet().add("x", -1)

    def test_as_dict_is_a_copy(self):
        counters = CounterSet()
        counters.add("a", 1)
        snapshot = counters.as_dict()
        snapshot["a"] = 99
        assert counters.get("a") == 1


class TestThroughput:
    def test_zero_elapsed_gives_zero(self):
        assert throughput_kops(100, 0.0) == 0.0

    def test_kops_conversion(self):
        # 1000 ops in one simulated second = 1 kops.
        assert throughput_kops(1000, 1_000_000.0) == pytest.approx(1.0)


class TestLatencyRecorderLazySort:
    def test_summary_correct_after_interleaved_records(self):
        recorder = LatencyRecorder()
        recorder.record(5.0)
        recorder.record(1.0)
        assert recorder.summary().p50 == 1.0
        recorder.record(9.0)  # invalidates the cached sort by length
        summary = recorder.summary()
        assert summary.p50 == 5.0
        assert summary.maximum == 9.0

    def test_repeated_summaries_reuse_one_sort(self):
        recorder = LatencyRecorder()
        for value in (3.0, 1.0, 2.0):
            recorder.record(value)
        first = recorder._sorted_samples()
        recorder.summary()
        recorder.percentile(95.0)
        assert recorder._sorted_samples() is first


def reference_summary(samples: list[float]) -> LatencySummary:
    """The summary of a plain list of float objects."""
    if not samples:
        return LatencySummary.empty()
    ordered = sorted(samples)
    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=nearest_rank(ordered, 50.0),
        p95=nearest_rank(ordered, 95.0),
        p99=nearest_rank(ordered, 99.0),
        maximum=ordered[-1],
    )


latencies = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)


class TestUnboxedSamples:
    @given(st.lists(latencies, max_size=300))
    def test_summary_equals_the_list_reference_exactly(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        assert recorder.summary() == reference_summary(samples)
        assert list(recorder.samples) == samples

    @given(st.lists(latencies, max_size=300), st.randoms())
    def test_merge_order_never_changes_the_summary(self, samples, rng):
        # Populations split and re-joined (reads by serving source, fleet
        # shards) arrive in another order; the summary must not notice.
        shuffled = list(samples)
        rng.shuffle(shuffled)
        recorder = LatencyRecorder()
        for sample in shuffled:
            recorder.record(sample)
        assert recorder.summary() == reference_summary(samples)

    def test_integer_latency_is_stored_as_a_float(self):
        recorder = LatencyRecorder()
        recorder.record(3)
        summary = recorder.summary()
        assert type(summary.p50) is float and type(summary.maximum) is float
