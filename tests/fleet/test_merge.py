"""Merge-path properties: per-shard merges equal one combined stream.

The fleet's worker-count invariance rests on every merge being a pure
function that reproduces what a single observer of the combined stream
would have recorded. These tests pin that property for each layer:
MetricsRegistry snapshots, timelines, and the full RunResult merge.
"""

from dataclasses import fields

import pytest

from repro.bench.harness import RunResult, SystemConfig, run_experiment
from repro.common.clock import SimClock
from repro.common.rng import make_rng
from repro.common.stats import LatencySummary
from repro.errors import ConfigError, ObservabilityError
from repro.fleet.merge import _EXPLICIT, _FOLDED, _SUMMED, ShardAccumulator
from repro.fleet.pool import DevicePool, PoolParams
from repro.fleet.runner import FleetConfig, default_tenants, run_shard
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineSampler, merge_timelines
from repro.workloads.ycsb import YCSBConfig


def merge(results):
    """Fold ``results`` as the fleet router does: one ``add`` per shard."""
    accumulator = ShardAccumulator()
    for result in results:
        accumulator.add(result)
    return accumulator.finish(label="fleet")


class TestSnapshotMerge:
    @staticmethod
    def _populate(registry, events):
        for tier, amount in events:
            registry.counter("device.write_bytes", tier=tier).inc(amount)
            registry.histogram("op.latency_usec", op="read").observe(amount)

    def test_merged_snapshots_equal_combined_registry(self):
        rng = make_rng(7, "snapshot-merge")
        events = [
            (("nvm", "tlc", "qlc")[rng.randrange(3)], rng.random() * 900.0)
            for _ in range(300)
        ]
        combined = MetricsRegistry()
        self._populate(combined, events)
        shards = [MetricsRegistry() for _ in range(3)]
        for index, event in enumerate(events):
            self._populate(shards[index % 3], [event])
        merged = MetricsRegistry.merge_snapshots([r.snapshot() for r in shards])

        def flat(snapshot):
            exact, floats = {}, {}
            for name, metric in snapshot.items():
                for row in metric["series"]:
                    key = (name, tuple(sorted(row["labels"].items())))
                    if "value" in row:
                        floats[key] = row["value"]
                    else:
                        exact[key] = (row["count"], list(row["buckets"]))
                        floats[key + ("sum",)] = row["sum"]
            return exact, floats

        got_exact, got_floats = flat(merged)
        want_exact, want_floats = flat(combined.snapshot())
        assert got_exact == want_exact
        assert got_floats == pytest.approx(want_floats)


class TestTimelineMerge:
    @staticmethod
    def _run(seed):
        config = SystemConfig(system="prismdb", layout_code="NNNTQ", seed=seed)
        workload = YCSBConfig.read_update(
            50, record_count=800, operation_count=900, seed=seed
        )
        return run_experiment(
            config, workload, label=f"merge/{seed}", sample_interval_ms=0.5
        )

    def test_extensive_series_sum_elementwise(self):
        timelines = [self._run(seed).timeline for seed in (0, 1)]
        merged = merge_timelines(timelines)
        length = len(merged["t_ms"])
        for name, values in merged["series"].items():
            if name.endswith(("_p50_usec", "_p99_usec")) or name.endswith(
                "hit_rate"
            ):
                continue  # intensive: throughput-weighted, not summed
            expected = [
                sum(
                    t["series"][name][k]
                    for t in timelines
                    if name in t["series"] and k < len(t["series"][name])
                )
                for k in range(length)
            ]
            assert values == pytest.approx(expected), name

    def test_merge_is_order_invariant_and_checks_interval(self):
        timelines = [self._run(seed).timeline for seed in (0, 1)]
        assert merge_timelines(timelines) == merge_timelines(timelines[::-1])
        clock = SimClock()
        odd = TimelineSampler(
            MetricsRegistry(), clock, interval_ms=3.0
        ).to_dict()
        with pytest.raises(ObservabilityError):
            merge_timelines([timelines[0], odd])


class TestRunResultMerge:
    @pytest.fixture(scope="class")
    def shard_results(self):
        config = FleetConfig(
            shards=2,
            tenants=default_tenants(2, keys_per_tenant=800),
            total_operations=2_400,
            sample_interval_ms=0.5,
        )
        return [run_shard(config, shard) for shard in range(config.shards)]

    def test_extensive_totals_are_exact_sums(self, shard_results):
        merged = merge(shard_results)
        for attr in (
            "operations",
            "user_write_bytes",
            "wal_bytes",
            "flush_bytes",
            "compaction_write_bytes",
        ):
            assert getattr(merged, attr) == sum(
                getattr(r, attr) for r in shard_results
            ), attr
        assert merged.elapsed_usec == max(r.elapsed_usec for r in shard_results)
        for tier in merged.device_write_bytes:
            assert merged.device_write_bytes[tier] == sum(
                r.device_write_bytes.get(tier, 0) for r in shard_results
            )

    def test_latency_counts_and_means_are_exact(self, shard_results):
        merged = merge(shard_results)
        count = sum(r.read_latency.count for r in shard_results)
        assert merged.read_latency.count == count
        total = sum(r.read_latency.mean * r.read_latency.count
                    for r in shard_results)
        assert merged.read_latency.mean == pytest.approx(total / count)
        assert merged.read_latency.maximum == max(
            r.read_latency.maximum for r in shard_results
        )

    def test_merge_is_order_invariant(self, shard_results):
        a = merge(shard_results)
        b = merge(shard_results[::-1])
        assert a.to_json() == b.to_json()

    def test_every_field_has_one_merge_rule(self):
        rules = _SUMMED + _FOLDED + _EXPLICIT
        assert len(rules) == len(set(rules))
        merged = {f.name for f in fields(RunResult)} - {"label", "fleet"}
        assert set(rules) == merged

    def test_mixed_systems_rejected(self, shard_results):
        other = shard_results[1]
        alien = RunResult.from_json(other.to_json())
        alien.system = "rocksdb"
        with pytest.raises(ConfigError):
            merge([shard_results[0], alien])


class TestDevicePool:
    def test_penalty_shifts_summaries_comonotonically(self):
        summary = LatencySummary(
            count=10, mean=100.0, p50=90.0, p95=150.0, p99=180.0, maximum=200.0
        )
        penalty = {"mean": 5.0, "p50": 4.0, "p95": 6.0, "p99": 7.0, "max": 8.0}
        shifted = DevicePool.apply_penalty(summary, penalty)
        assert shifted.count == 10
        assert shifted.mean == 105.0
        assert shifted.p50 == 94.0
        assert shifted.p99 == 187.0
        assert shifted.maximum == 208.0

    def test_empty_summary_unchanged(self):
        empty = LatencySummary.empty()
        penalty = {"mean": 5.0, "p50": 4.0, "p95": 6.0, "p99": 7.0, "max": 8.0}
        assert DevicePool.apply_penalty(empty, penalty) == empty

    def test_contention_accounts_fleet_write_bytes(self):
        config = FleetConfig(
            shards=2,
            tenants=default_tenants(2, keys_per_tenant=800),
            total_operations=2_400,
            sample_interval_ms=0.5,
        )
        results = [run_shard(config, shard) for shard in range(2)]
        merged = merge(results)
        pool = DevicePool(2, PoolParams(oversubscription=2.0))
        contention = pool.contention(merged.timeline)
        assert contention["shards"] == 2
        total_writes = sum(
            tier["write_bytes"] for tier in contention["tiers"].values()
        )
        timeline_writes = sum(
            sum(values)
            for name, values in merged.timeline["series"].items()
            if name.startswith("device.write_bytes{")
            and "tier=dram" not in name
        )
        assert total_writes == pytest.approx(timeline_writes)

    def test_tight_pool_penalizes_more(self):
        config = FleetConfig(
            shards=2,
            tenants=default_tenants(2, keys_per_tenant=800),
            total_operations=2_400,
            sample_interval_ms=0.5,
        )
        results = [run_shard(config, shard) for shard in range(2)]
        merged = merge(results)
        loose = DevicePool(2, PoolParams(oversubscription=1.0))
        tight = DevicePool(2, PoolParams(oversubscription=64.0))
        assert (
            tight.contention(merged.timeline)["penalty"]["mean"]
            >= loose.contention(merged.timeline)["penalty"]["mean"]
        )
