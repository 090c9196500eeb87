"""Tests for the timeline sampler (repro.obs.timeline)."""

import json
from collections import Counter

import pytest

from repro.common.clock import SimClock
from repro.common.stats import LatencyRecorder
from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, TimelineSampler
from repro.obs.metrics import percentile_from_buckets


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def reads():
    return LatencyRecorder()


def make_sampler(registry, clock, **kwargs):
    kwargs.setdefault("interval_ms", 1.0)
    return TimelineSampler(registry, clock, **kwargs).attach()


class TestSamplingCadence:
    def test_no_sample_before_first_interval(self, registry, clock):
        sampler = make_sampler(registry, clock)
        clock.advance(999.0)  # 0.999 ms < 1 ms
        assert len(sampler) == 0

    def test_one_sample_per_interval(self, registry, clock):
        sampler = make_sampler(registry, clock)
        for _ in range(5):
            clock.advance(1_000.0)
        assert len(sampler) == 5

    def test_sample_timestamps_are_boundaries(self, registry, clock):
        sampler = make_sampler(registry, clock)
        clock.advance(3_500.0)  # crosses 1ms, 2ms, 3ms boundaries at once
        assert [row[0] for row in sampler.rows] == [1.0, 2.0, 3.0]

    def test_detach_stops_sampling(self, registry, clock):
        sampler = make_sampler(registry, clock)
        clock.advance(1_000.0)
        sampler.detach()
        clock.advance(5_000.0)
        assert len(sampler) == 1

    def test_pathological_jump_is_collapsed(self, registry, clock):
        from repro.obs.timeline import MAX_CATCHUP_SAMPLES

        sampler = make_sampler(registry, clock)
        clock.advance(1_000_000.0)  # 1000 intervals in one move
        assert len(sampler) <= MAX_CATCHUP_SAMPLES + 1

    def test_invalid_interval_rejected(self, registry, clock):
        with pytest.raises(ObservabilityError):
            TimelineSampler(registry, clock, interval_ms=0.0)

    def test_invalid_capacity_rejected(self, registry, clock):
        with pytest.raises(ObservabilityError):
            TimelineSampler(registry, clock, capacity=0)


class TestRingBuffer:
    def test_capacity_bounds_rows_and_counts_drops(self, registry, clock):
        sampler = make_sampler(registry, clock, capacity=3)
        for _ in range(10):
            clock.advance(1_000.0)
        assert len(sampler) == 3
        assert sampler.dropped == 7
        # Oldest rows dropped: the survivors are the last three boundaries.
        assert [row[0] for row in sampler.rows] == [8.0, 9.0, 10.0]


class TestDeltas:
    def test_counter_deltas_not_cumulative(self, registry, clock):
        hits = registry.counter("cache.hits", type="data")
        registry.counter("cache.misses", type="data")
        sampler = make_sampler(registry, clock)
        hits.inc(3)
        clock.advance(1_000.0)
        hits.inc(1)
        clock.advance(1_000.0)
        rates = [row[2]["cache.hit_rate"] for row in sampler.rows]
        assert rates == [1.0, 1.0]
        # Now only misses: the rate must reflect the interval, not the run.
        registry.counter("cache.misses", type="data").inc(4)
        clock.advance(1_000.0)
        assert sampler.rows[-1][2]["cache.hit_rate"] == 0.0

    def test_throughput_from_op_histogram_deltas(self, registry, clock, reads):
        sampler = make_sampler(registry, clock, latencies={"read": reads})
        for _ in range(10):
            reads.record(5.0)
        clock.advance(1_000.0)
        clock.advance(1_000.0)
        first, second = (row[2]["throughput_kops"] for row in sampler.rows)
        assert first == pytest.approx(10 / 0.001 / 1_000.0)  # 10 ops in 1 ms
        assert second == 0.0

    def test_interval_percentiles_from_bucket_deltas(self, registry, clock, reads):
        sampler = make_sampler(registry, clock, latencies={"read": reads})
        reads.record(1.0)
        clock.advance(1_000.0)
        # The second interval sees only slow reads; a cumulative p99
        # would still be dragged down by the fast first interval.
        for _ in range(20):
            reads.record(1_000.0)
        clock.advance(1_000.0)
        p99s = [row[2]["read_p99_usec"] for row in sampler.rows]
        assert p99s[0] == 1.0
        assert p99s[1] >= 1_000.0

    def test_device_busy_fraction(self, registry, clock):
        registry.counter("device.busy_usec", tier="nvm").inc(500.0)
        sampler = make_sampler(registry, clock)
        clock.advance(1_000.0)
        # 500 usec of pre-attach busy time lands in the first interval.
        assert sampler.rows[0][2]["device.busy_frac{tier=nvm}"] == pytest.approx(0.5)

    def test_gauge_is_instantaneous_not_delta(self, registry, clock):
        occupancy = registry.gauge("tracker.occupancy")
        sampler = make_sampler(registry, clock)
        occupancy.set(40)
        clock.advance(1_000.0)
        occupancy.set(40)
        clock.advance(1_000.0)
        values = [row[2]["tracker.occupancy"] for row in sampler.rows]
        assert values == [40.0, 40.0]

    def test_probes_polled_at_sample_time(self, registry, clock):
        state = {"v": 1.0}
        sampler = TimelineSampler(
            registry, clock, interval_ms=1.0, probes={"memtable.bytes": lambda: state["v"]}
        ).attach()
        clock.advance(1_000.0)
        state["v"] = 9.0
        clock.advance(1_000.0)
        assert [row[2]["memtable.bytes"] for row in sampler.rows] == [1.0, 9.0]


class TestOnePassPerMetric:
    def test_each_metric_is_walked_once_per_sample(self, registry, clock, monkeypatch):
        # Three levels and two tiers: one read per label value would walk
        # compaction.count four times and device.busy_usec three.
        for level in "012":
            registry.counter("compaction.count", level=level).inc()
        for tier in ("nvm", "qlc"):
            registry.counter("device.busy_usec", tier=tier).inc(100)
            registry.counter("device.read_bytes", tier=tier).inc(7)
        registry.counter("compaction.records", kind="pinned", level="1").inc(5)
        sampler = make_sampler(registry, clock)
        walks, series = Counter(), registry.series
        monkeypatch.setattr(registry, "series", lambda name: walks.update([name]) or series(name))
        clock.advance(1_000.0)
        assert max(walks.values()) == 1, walks
        [(_, _, row)] = sampler.rows
        assert row["compaction.count{level=2}"] == 1.0
        assert row["device.read_bytes{tier=qlc}"] == 7.0
        assert row["compaction.records{kind=pinned}"] == 5.0


class TestPhasesAndExport:
    def test_phase_stamps_rows(self, registry, clock):
        sampler = make_sampler(registry, clock)
        sampler.mark_phase("load")
        clock.advance(1_000.0)
        sampler.mark_phase("run")
        clock.advance(1_000.0)
        assert [row[1] for row in sampler.rows] == ["load", "run"]

    def test_to_dict_is_json_safe_and_aligned(self, registry, clock):
        registry.counter("cache.hits", type="data").inc()
        registry.counter("cache.misses", type="data")
        sampler = make_sampler(registry, clock)
        sampler.mark_phase("run")
        clock.advance(2_500.0)
        exported = sampler.to_dict()
        rebuilt = json.loads(json.dumps(exported, allow_nan=False))
        assert rebuilt == exported
        assert len(exported["t_ms"]) == len(exported["phase"]) == 2
        for values in exported["series"].values():
            assert len(values) == 2


class TestBucketRule:
    def test_interval_percentiles_match_a_histogram_of_the_same_samples(
        self, registry, clock, reads
    ):
        # The ranked samples (p50: 2.0, p99: 4096.0) sit on bucket edges,
        # where a bisect_right rule would report the next bucket's bound.
        values = [0.0, 1.0, 2.0, 2.0, 2.0, 3.0, 64.0, 4096.0]
        sampler = make_sampler(registry, clock, latencies={"read": reads})
        hist = registry.histogram("op.latency_usec", op="read")
        for value in values:
            reads.record(value)
            hist.observe(value)
        clock.advance(1_000.0)
        row = sampler.rows[0][2]
        assert (row["read_p50_usec"], row["read_p99_usec"]) == (2.0, 4096.0)
        for pct in (50.0, 99.0):
            assert row[f"read_p{pct:.0f}_usec"] == percentile_from_buckets(
                hist.bounds, hist.bucket_counts, pct
            )


class TestPercentileFromBuckets:
    def test_matches_histogram_percentile(self, registry):
        hist = registry.histogram("op.latency_usec", op="read")
        for value in (1.0, 3.0, 9.0, 100.0, 4000.0):
            hist.observe(value)
        for pct in (50.0, 95.0, 99.0, 100.0):
            assert percentile_from_buckets(
                hist.bounds, hist.bucket_counts, pct, maximum=hist.maximum
            ) == hist.percentile(pct)

    def test_empty_buckets(self):
        assert percentile_from_buckets((1.0, 2.0), [0, 0, 0], 99.0) == 0.0

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            percentile_from_buckets((1.0,), [1, 0], 101.0)


class TestEdgeCases:
    """Boundary behaviours: idle intervals, markers on sample edges,
    and bucket deltas that return to zero after a burst."""

    def test_zero_op_interval_rows_are_all_zero(self, registry, clock, reads):
        sampler = make_sampler(registry, clock, latencies={"read": reads})
        for _ in range(5):
            reads.record(10.0)
        clock.advance(1_000.0)  # busy interval
        clock.advance(1_000.0)  # idle interval
        clock.advance(1_000.0)  # another idle interval
        idle_rows = sampler.rows[1:]
        assert len(idle_rows) == 2
        for _, _, values in idle_rows:
            assert values["throughput_kops"] == 0.0
            assert values["read_p50_usec"] == 0.0
            assert values["read_p99_usec"] == 0.0

    def test_zero_op_interval_does_not_reuse_previous_percentiles(
        self, registry, clock, reads
    ):
        # A cumulative-percentile bug would echo the burst's p99 into the
        # idle interval; the delta view must report 0 (no ops).
        sampler = make_sampler(registry, clock, latencies={"read": reads})
        for _ in range(20):
            reads.record(5_000.0)
        clock.advance(1_000.0)
        clock.advance(1_000.0)
        p99s = [row[2]["read_p99_usec"] for row in sampler.rows]
        assert p99s[0] >= 5_000.0
        assert p99s[1] == 0.0

    def test_phase_marker_exactly_on_interval_edge(self, registry, clock):
        sampler = make_sampler(registry, clock)
        clock.advance(1_000.0)  # sample at exactly t=1ms, phase ""
        sampler.mark_phase("run")  # marked at exactly t=1ms
        clock.advance(1_000.0)  # sample at t=2ms
        rows = sampler.rows
        assert [row[1] for row in rows] == ["", "run"]
        # The marker itself is recorded at the boundary timestamp.
        assert sampler.to_dict()["phases"] == [[1.0, "run"]]

    def test_phase_marker_mid_interval_stamps_next_sample(self, registry, clock):
        sampler = make_sampler(registry, clock)
        clock.advance(500.0)
        sampler.mark_phase("warmup")
        clock.advance(500.0)  # boundary at t=1ms carries the new phase
        assert sampler.rows[0][1] == "warmup"

    def test_bucket_delta_goes_negative_free_when_bucket_empties(
        self, registry, clock, reads
    ):
        # An interval where a previously hot bucket sees no samples must
        # not count that bucket again.
        sampler = make_sampler(registry, clock, latencies={"read": reads})
        for _ in range(8):
            reads.record(3.0)  # lands in the (2, 4] bucket
        clock.advance(1_000.0)
        for _ in range(4):
            reads.record(4_000.0)  # a different, high bucket
        clock.advance(1_000.0)
        # Interval ops counted via throughput: 8 then 4, never 12.
        kops = [row[2]["throughput_kops"] for row in sampler.rows]
        assert kops[0] == pytest.approx(8 / 0.001 / 1_000.0)
        assert kops[1] == pytest.approx(4 / 0.001 / 1_000.0)
        # The second interval's median is its own high bucket's bound.
        assert [row[2]["read_p50_usec"] for row in sampler.rows] == [4.0, 4096.0]
        # And a further idle interval reports an all-zero row.
        clock.advance(1_000.0)
        assert sampler.rows[2][2]["throughput_kops"] == 0.0
        assert sampler.rows[2][2]["read_p99_usec"] == 0.0

    def test_probe_error_free_zero_interval_export(self, registry, clock):
        # to_dict on a timeline whose only rows are zero-op intervals is
        # still JSON-safe and column-aligned.
        sampler = make_sampler(registry, clock, latencies={"read": LatencyRecorder()})
        clock.advance(3_000.0)
        doc = sampler.to_dict()
        assert len(doc["t_ms"]) == 3
        for values in doc["series"].values():
            assert len(values) == 3
        json.dumps(doc)
