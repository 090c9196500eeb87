"""Tests for per-request latency provenance (repro.obs.attribution)."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.attribution import (
    BANDS,
    RESIDUAL_KEY,
    LatencyAttribution,
    OpContext,
    attribute,
    attributing,
    attribution_table,
    band_breakdown,
    diff_attribution,
    note_probe,
    set_scope,
)


def record_op(attr, op, parts, total=None):
    """Feed one op whose breakdown is ``parts`` ({(comp, tier): usec})."""
    ctx = OpContext(op)
    for (component, tier), usec in parts.items():
        ctx.add(component, tier, usec)
    if total is None:
        total = sum(parts.values())
    attr.observe(ctx, total)
    return ctx


class TestOpContext:
    def test_parts_accumulate_by_component_tier(self):
        ctx = OpContext("read")
        ctx.add("data", "tlc", 10.0)
        ctx.add("data", "tlc", 5.0)
        ctx.add("filter", "dram", 1.0)
        assert ctx.parts == {"data/tlc": 15.0, "filter/dram": 1.0}

    def test_events_preserve_order_and_scope(self):
        ctx = OpContext("read")
        ctx.scope = "L3:f17"
        ctx.add("data", "tlc", 10.0)
        ctx.scope = "L4:f20"
        ctx.add("compact_wait", "qlc", 3.0)
        assert ctx.events == [
            ("L3:f17", "data", "tlc", 10.0),
            ("L4:f20", "compact_wait", "qlc", 3.0),
        ]

    def test_probe_counters(self):
        ctx = OpContext("read")
        ctx.note_probe(False, n_probes=7)
        ctx.note_probe(True, n_probes=7)
        assert ctx.probes == {"bloom": 2, "bloom_negative": 1, "bloom_hashes": 14}


class TestSeam:
    def test_charges_land_on_the_active_op_only(self):
        ctx = OpContext("read")
        attribute("data", "tlc", 1.0)  # no op active: nothing to record
        with attributing(ctx):
            set_scope("L3", 17)
            attribute("data", "tlc", 10.0)
            note_probe(False, 7)
        attribute("data", "tlc", 2.0)
        set_scope("L4", 20)
        note_probe(True, 7)
        assert ctx.events == [("L3:f17", "data", "tlc", 10.0)]
        assert ctx.probes == {"bloom": 1, "bloom_negative": 1, "bloom_hashes": 7}

    def test_the_slot_clears_when_the_call_raises(self):
        ctx = OpContext("read")
        with pytest.raises(RuntimeError):
            with attributing(ctx):
                raise RuntimeError
        attribute("data", "tlc", 1.0)
        assert ctx.parts == {}


class TestAggregation:
    def test_parts_sum_to_total_exactly(self):
        attr = LatencyAttribution(seed=0)
        record_op(attr, "read", {("data", "tlc"): 100.0, ("cpu", "-"): 2.0})
        record_op(attr, "read", {("memtable", "dram"): 0.5})
        data = attr.to_dict()
        info = data["ops"]["read"]
        for bucket in info["buckets"]:
            assert sum(bucket["parts"].values()) == pytest.approx(
                bucket["total_usec"], rel=1e-12
            )

    def test_unattributed_latency_lands_in_residual(self):
        attr = LatencyAttribution(seed=0)
        record_op(attr, "read", {("data", "tlc"): 10.0}, total=14.0)
        (bucket,) = attr.to_dict()["ops"]["read"]["buckets"]
        assert bucket["parts"][RESIDUAL_KEY] == pytest.approx(4.0)
        assert sum(bucket["parts"].values()) == pytest.approx(14.0)

    def test_bucket_rule_matches_histogram(self):
        # Bucket i covers (bounds[i-1], bounds[i]]: a value exactly on a
        # bound goes to that bound's bucket, as in Histogram.observe; a
        # value above the last bound goes to the overflow bucket.
        bounds = LatencyAttribution.BOUNDS
        assert bounds[:3] == (1.0, 2.0, 4.0)
        attr = LatencyAttribution(seed=0)
        for total in (1.0, 1.5, 2.0, 2.5, 4.0, 2 * bounds[-1]):
            record_op(attr, "read", {("cpu", "-"): total})
        indices = {
            b["index"]: b["count"] for b in attr.to_dict()["ops"]["read"]["buckets"]
        }
        assert indices == {0: 1, 1: 2, 2: 2, len(bounds): 1}


class TestSlowOps:
    def test_worst_k_retained(self):
        attr = LatencyAttribution(seed=0)
        assert attr.SLOW_K == 8
        totals = [float(3 ** i % 101) for i in range(1, 30)]  # 29 distinct values
        for total in totals:
            record_op(attr, "read", {("data", "tlc"): total})
        slow = attr.to_dict()["slow_ops"]
        assert [entry["total_usec"] for entry in slow] == sorted(totals, reverse=True)[:8]

    def test_slow_entry_carries_events_and_state(self):
        attr = LatencyAttribution(seed=0)
        attr.state_fn = lambda: {"l0_files": 4}
        ctx = OpContext("read")
        ctx.scope = "L3:f9"
        ctx.add("data", "tlc", 42.0)
        attr.observe(ctx, 42.0)
        (entry,) = attr.to_dict()["slow_ops"]
        assert entry["events"] == [["L3:f9", "data", "tlc", 42.0]]
        assert entry["state"] == {"l0_files": 4}

    def test_examples_reservoir_is_deterministic(self):
        def fill(seed):
            attr = LatencyAttribution(seed=seed)
            for i in range(50):
                record_op(attr, "read", {("cpu", "-"): float(i)})
            return [e["seq"] for e in attr.to_dict()["examples"]]

        assert len(fill(7)) == LatencyAttribution.RESERVOIR_K == 4
        assert fill(7) == fill(7)
        assert fill(7) != fill(8)  # the seed actually feeds the draws


class TestRoundTrip:
    def make_populated(self):
        attr = LatencyAttribution(seed=3)
        attr.state_fn = lambda: {"clock_usec": 123.0}
        for i in range(20):
            record_op(
                attr,
                "read" if i % 2 else "update",
                {("data", "tlc"): float(i), ("cpu", "-"): 2.0},
            )
        return attr

    def test_to_dict_from_dict_bit_exact(self):
        attr = self.make_populated()
        blob = json.dumps(attr.to_dict(), sort_keys=True, allow_nan=False)
        rebuilt = LatencyAttribution.from_dict(json.loads(blob))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == blob

    def test_schema_mismatch_rejected(self):
        data = self.make_populated().to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError):
            LatencyAttribution.from_dict(data)

    @pytest.mark.parametrize("key, value", [("sample_every", 3), ("slow_k", 16),
                                            ("ops_offered", 999)])
    def test_a_layout_this_build_does_not_record_is_rejected(self, key, value):
        data = self.make_populated().to_dict()
        data[key] = value
        with pytest.raises(ConfigError, match=key):
            LatencyAttribution.from_dict(data)


class TestBands:
    def make_data(self):
        # 100 ops: 97 fast at 4 us (cpu), 3 slow at 1000 us (data/tlc).
        attr = LatencyAttribution(seed=0)
        for _ in range(97):
            record_op(attr, "read", {("cpu", "-"): 4.0})
        for _ in range(3):
            record_op(attr, "read", {("data", "tlc"): 1000.0})
        return attr.to_dict()

    def test_bands_partition_population(self):
        bands = band_breakdown(self.make_data(), "read")
        assert sum(slot["ops"] for slot in bands.values()) == pytest.approx(100.0)

    def test_band_parts_sum_to_band_total(self):
        for slot in band_breakdown(self.make_data(), "read").values():
            assert sum(slot["parts"].values()) == pytest.approx(
                slot["total_usec"], rel=1e-12
            )

    def test_tail_band_dominated_by_slow_component(self):
        tail = band_breakdown(self.make_data(), "read")["p99"]
        assert tail["ops"] == pytest.approx(1.0)
        assert tail["parts_per_op"]["data/tlc"] > tail["parts_per_op"].get(
            "cpu/-", 0.0
        )

    def test_unknown_op_is_empty(self):
        bands = band_breakdown(self.make_data(), "scan")
        assert all(slot["ops"] == 0.0 for slot in bands.values())

    def test_table_renders_all_bands(self):
        headers, rows = attribution_table(self.make_data())
        assert headers[0] == "op"
        listed_bands = {row[1] for row in rows if row[1]}
        assert len(listed_bands) == len(BANDS)


class TestDiff:
    def make_data(self, slow_usec):
        attr = LatencyAttribution(seed=0)
        for _ in range(97):
            record_op(attr, "read", {("cpu", "-"): 4.0})
        for _ in range(3):
            record_op(attr, "read", {("data", "tlc"): slow_usec})
        return attr.to_dict()

    def test_delta_fully_explained(self):
        diff = diff_attribution(
            self.make_data(1000.0), self.make_data(1500.0), op="read", band="p99"
        )
        assert diff["delta_usec"] == pytest.approx(500.0)
        assert diff["explained_fraction"] == pytest.approx(1.0)
        lead = diff["contributors"][0]
        assert lead["key"] == "data/tlc"
        assert lead["share"] == pytest.approx(1.0)

    def test_zero_delta(self):
        data = self.make_data(1000.0)
        diff = diff_attribution(data, data)
        assert diff["delta_usec"] == 0.0
        assert diff["explained_fraction"] == 1.0

    def test_unknown_band_rejected(self):
        data = self.make_data(1000.0)
        with pytest.raises(ValueError):
            diff_attribution(data, data, band="p75")
