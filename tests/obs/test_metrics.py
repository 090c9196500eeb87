"""Tests for the metrics registry: instruments, guards, snapshots."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.metrics import MAX_SERIES_PER_METRIC
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    View,
    exponential_buckets,
    label_key,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("db.reads", source="memtable")
        counter.inc()
        counter.inc(4)
        assert registry.value("db.reads", source="memtable") == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("device.reads", tier="nvm")
        b = registry.counter("device.reads", tier="nvm")
        assert a is b
        assert registry.counter("device.reads", tier="tlc") is not a

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("tracker.occupancy")
        gauge.set(10)
        gauge.set(8)
        assert gauge.value == 8

    def test_missing_series_value_is_zero(self):
        assert MetricsRegistry().value("nope", tier="x") == 0.0


class TestGuards:
    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("db.reads")
        with pytest.raises(ObservabilityError):
            registry.histogram("db.reads")

    def test_label_name_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("device.reads", tier="nvm")
        with pytest.raises(ObservabilityError):
            registry.counter("device.reads", level=3)

    def test_label_cardinality_guard(self):
        registry = MetricsRegistry()
        for i in range(MAX_SERIES_PER_METRIC):
            registry.counter("db.reads", source=f"L{i}")
        with pytest.raises(ObservabilityError):
            registry.counter("db.reads", source="one-too-many")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("Caps.name", "1leading", "trailing.", "sp ace", ""):
            with pytest.raises(ObservabilityError):
                registry.counter(bad)


class TestReadThrough:
    def test_view_follows_its_source(self):
        registry = MetricsRegistry()
        source = {"n": 0}
        view = registry.view("device.reads", lambda: source["n"], tier="nvm")
        assert registry.value("device.reads", tier="nvm") == 0.0
        source["n"] = 5
        assert registry.value("device.reads", tier="nvm") == 5.0
        assert registry.total("device.reads") == 5.0
        # Binding the series again points it at the new source.
        assert registry.view("device.reads", lambda: 2, tier="nvm") is view
        assert registry.value("device.reads", tier="nvm") == 2.0

    def test_count_views_appear_with_their_keys(self):
        registry = MetricsRegistry()
        counts: dict[str, int] = {}
        registry.count_views("db.reads", counts, source=str)
        assert "db.reads" not in registry.snapshot()  # no series before a key
        counts["L1"] = 3
        counts["memtable"] = 2
        assert registry.value("db.reads", source="L1") == 3.0
        assert registry.value("db.reads", source="L2") == 0.0
        assert registry.instrument("db.reads") is None
        assert registry.total("db.reads") == 5.0
        assert registry.label_values("db.reads", "source") == ["L1", "memtable"]

    def test_count_views_label_each_key_by_function(self):
        registry = MetricsRegistry()
        counts: dict[int, int] = {}
        tiers = {0: "nvm", 1: "nvm", 2: "tlc"}
        registry.count_views("compaction.write_bytes", counts, level=str, tier=tiers.get)
        counts[2] = 7
        counts[0] = 0  # a zero count is a series too
        assert registry.value("compaction.write_bytes", level=2, tier="tlc") == 7.0
        assert registry.value("compaction.write_bytes", level=2, tier="nvm") == 0.0
        assert registry.label_values("compaction.write_bytes", "tier") == ["nvm", "tlc"]
        assert registry.snapshot()["compaction.write_bytes"]["series"] == [
            {"labels": {"level": "0", "tier": "nvm"}, "value": 0.0},
            {"labels": {"level": "2", "tier": "tlc"}, "value": 7.0},
        ]
        counts[1] = 5  # a key added later is a series at once
        assert registry.total("compaction.write_bytes", tier="nvm") == 5.0

    def test_guards_raise_on_views(self):
        registry = MetricsRegistry()
        registry.view("tracker.occupancy", lambda: 1, gauge=True)
        with pytest.raises(ObservabilityError):
            registry.view("tracker.occupancy", lambda: 1)  # gauge, not counter
        registry.view("device.reads", lambda: 1, tier="nvm")
        with pytest.raises(ObservabilityError):
            registry.view("device.reads", lambda: 1, level=3)
        with pytest.raises(ObservabilityError):
            registry.view("Bad.Name", lambda: 1)
        registry.counter("db.writes")
        with pytest.raises(ObservabilityError):
            registry.view("db.writes", lambda: 1)  # already a pushed counter
        for i in range(MAX_SERIES_PER_METRIC):
            registry.view("cache.hits", lambda: 1, type=f"t{i}")
        with pytest.raises(ObservabilityError):
            registry.view("cache.hits", lambda: 1, type="one-too-many")

    def test_guards_raise_on_count_views(self):
        registry = MetricsRegistry()
        counts = {f"L{i}": 1 for i in range(MAX_SERIES_PER_METRIC + 1)}
        registry.count_views("db.reads", counts, source=str)
        with pytest.raises(ObservabilityError):
            registry.snapshot()
        with pytest.raises(ObservabilityError):
            registry.count_views("db.reads", {}, source=str)
        with pytest.raises(ObservabilityError):
            registry.counter("db.reads", source="L0")

    def test_view_snapshot_row_is_a_float(self):
        registry = MetricsRegistry()
        registry.view("db.writes", lambda: 3)
        registry.view("tracker.occupancy", lambda: 7, gauge=True)
        registry.count_views("db.reads", {"L0": 4}, source=str)
        snapshot = registry.snapshot()
        assert snapshot["db.writes"] == {
            "type": "counter", "series": [{"labels": {}, "value": 3.0}]
        }
        assert snapshot["tracker.occupancy"]["type"] == "gauge"
        for name in ("db.writes", "tracker.occupancy", "db.reads"):
            (row,) = snapshot[name]["series"]
            assert type(row["value"]) is float, name
        assert isinstance(registry.instrument("db.reads", source="L0"), View)
        assert registry.instrument("db.reads", source="L0").value == 4.0


class TestBuckets:
    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)

    def test_default_buckets_cover_device_latencies(self):
        # 1 us .. 2^26 us (~67 s): everything the device models produce.
        assert DEFAULT_LATENCY_BUCKETS[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS[-1] == 2.0**26
        assert len(DEFAULT_LATENCY_BUCKETS) == 27

    def test_boundary_values_are_inclusive_upper_edges(self):
        hist = Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.0, 1.0):  # both land in bucket 0 (<= 1.0)
            hist.observe(value)
        hist.observe(1.5)  # bucket 1 (<= 2.0)
        hist.observe(2.0)  # bucket 1, inclusive upper edge
        hist.observe(4.0)  # bucket 2
        hist.observe(100.0)  # overflow bucket
        assert hist.bucket_counts == [2, 2, 1, 1]
        assert hist.count == 6

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())


class TestHistogramPercentiles:
    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.percentile(50.0) == 0.0
        assert hist.mean == 0.0
        assert hist.summary().count == 0

    def test_percentile_reports_bucket_upper_bound(self):
        hist = Histogram(bounds=(10.0, 100.0, 1000.0))
        for _ in range(99):
            hist.observe(5.0)
        hist.observe(500.0)
        assert hist.percentile(50.0) == 10.0
        # The one large sample sits in the (100, 1000] bucket; its upper
        # bound clamps to the observed max.
        assert hist.percentile(100.0) == 500.0

    def test_overflow_bucket_reports_maximum(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(123.0)
        assert hist.percentile(99.0) == 123.0
        assert hist.maximum == 123.0

    def test_rejects_bad_input(self):
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e7), min_size=1, max_size=100))
    def test_percentile_invariants(self, samples):
        hist = Histogram()
        for s in samples:
            hist.observe(s)
        p50, p99 = hist.percentile(50.0), hist.percentile(99.0)
        assert p50 <= p99 <= max(samples)
        assert hist.percentile(100.0) == max(samples)
        # Bucketed estimates are upper bounds accurate to one bucket:
        # the true nearest-rank value never exceeds the estimate.
        assert p50 >= min(samples) or p50 == pytest.approx(min(samples))


class TestRegistryViews:
    def test_total_with_label_filter(self):
        registry = MetricsRegistry()
        registry.counter("device.write_bytes", tier="nvm", mode="foreground").inc(10)
        registry.counter("device.write_bytes", tier="nvm", mode="background").inc(5)
        registry.counter("device.write_bytes", tier="tlc", mode="background").inc(7)
        assert registry.total("device.write_bytes") == 22
        assert registry.total("device.write_bytes", tier="nvm") == 15
        assert registry.total("device.write_bytes", mode="background") == 12
        assert registry.total("no.such.metric") == 0.0

    def test_total_counts_histogram_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("op.latency_usec", op="read")
        hist.observe(1.0)
        hist.observe(2.0)
        assert registry.total("op.latency_usec") == 2

    def test_snapshot_is_json_safe_and_complete(self):
        import json

        registry = MetricsRegistry()
        registry.counter("db.reads", source="L0").inc(3)
        registry.gauge("tracker.occupancy").set(7)
        registry.histogram("op.latency_usec", op="read").observe(12.0)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["db.reads"]["type"] == "counter"
        assert snapshot["db.reads"]["series"][0] == {
            "labels": {"source": "L0"},
            "value": 3.0,
        }
        hist_row = snapshot["op.latency_usec"]["series"][0]
        assert hist_row["count"] == 1
        assert hist_row["p50"] == 12.0  # clamped to the observed max
        assert sum(hist_row["buckets"]) == 1

    def test_label_key(self):
        key = label_key({"tier": "nvm", "level": 2})
        assert key == (("level", "2"), ("tier", "nvm"))
