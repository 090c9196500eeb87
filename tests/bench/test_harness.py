"""Tests for the benchmark harness (small scales)."""

import gc
import hashlib
import json
import weakref
from functools import partial

import pytest

from repro.baselines.mutant import MutantDB, MutantOptions
from repro.baselines.rocksdb import RocksDBLike
from repro.bench import harness
from repro.bench.harness import (
    RunResult,
    SystemConfig,
    WorkloadRunner,
    build_system,
    run_experiment,
)
from repro.common.stats import LatencyRecorder
from repro.core.prismdb import PrismDB
from repro.errors import ConfigError
from repro.obs.attribution import RESIDUAL_KEY
from repro.workloads import YCSBConfig, YCSBWorkload
from repro.workloads.ycsb import OP_READ

SMALL = YCSBConfig(record_count=2_000, operation_count=3_000)


class TestSystemConfig:
    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(system="leveldb")

    def test_bad_clients_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(clients=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(row_cache_share=2.0), "row_cache_share out of range"),
            (dict(row_cache_share=-0.1), "row_cache_share out of range"),
            (dict(pinning_threshold=7), "pinning_threshold must be in"),
            (dict(pinning_threshold=-0.5), "pinning_threshold must be in"),
        ],
        ids=["row_cache_above", "row_cache_below", "pinning_above", "pinning_below"],
    )
    def test_a_bad_field_fails_where_the_config_is_built(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            SystemConfig(system="prismdb", **fields)


class TestBuildSystem:
    def test_builds_each_system(self):
        workload = YCSBWorkload(SMALL)
        assert isinstance(build_system(SystemConfig(system="rocksdb"), workload), RocksDBLike)
        assert isinstance(build_system(SystemConfig(system="prismdb"), workload), PrismDB)
        assert isinstance(build_system(SystemConfig(system="mutant"), workload), MutantDB)

    def test_layout_follows_config(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="rocksdb", layout_code="QQQQQ"), workload)
        assert db.layout.code == "QQQQQ"

    def test_cache_disabled(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="rocksdb", cache_fraction=0.0), workload)
        assert db.cache.capacity_bytes == 0

    def test_tracker_sized_from_keyspace(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="prismdb"), workload)
        assert db.tracker.capacity == 200


class TestWorkloadRunner:
    def test_load_advances_clock(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="rocksdb"), workload)
        runner = WorkloadRunner(db, clients=8)
        elapsed = runner.load(workload)
        assert elapsed > 0
        assert db.clock.now == pytest.approx(elapsed)

    def test_run_records_latencies(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="rocksdb"), workload)
        runner = WorkloadRunner(db, clients=8)
        runner.load(workload)
        runner.run(workload)
        assert len(runner.read_latency) > 0
        assert len(runner.update_latency) > 0
        assert len(runner.read_latency) + len(runner.update_latency) == SMALL.operation_count

    def test_warmup_not_measured(self):
        config = YCSBConfig(record_count=2_000, operation_count=100, warmup_operations=500)
        workload = YCSBWorkload(config)
        db = build_system(SystemConfig(system="rocksdb"), workload)
        runner = WorkloadRunner(db, clients=8)
        runner.load(workload)
        runner.warmup(workload)
        assert len(runner.read_latency) == 0
        runner.run(workload)
        assert len(runner.read_latency) + len(runner.update_latency) == 100

    def test_each_read_recorded_once_and_sources_sum_to_reads(self, monkeypatch):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="prismdb"), workload)
        runner = WorkloadRunner(db, clients=8)
        runner.load(workload)
        recorded = []
        original = LatencyRecorder.record
        monkeypatch.setattr(
            LatencyRecorder, "record", lambda self, v: (recorded.append(v), original(self, v))
        )
        runner.run(workload)
        reads = sum(batch.kinds.count(OP_READ) for batch in workload.run_batches())
        assert len(recorded) == SMALL.operation_count  # one sample per op, reads included
        assert len(runner.read_latency) == reads
        result = runner.result("reads", SystemConfig(system="prismdb"), 1.0)
        assert result.read_latency == runner.read_latency.summary()
        assert result.read_latency.count == reads
        # The per-source split is derived from the one read population:
        # counts add up, the slowest source holds the slowest read, and
        # the registry's per-source histograms are the same split.
        by_source = result.read_latency_by_source
        assert len(by_source) > 1
        assert sum(summary.count for summary in by_source.values()) == reads
        assert max(s.maximum for s in by_source.values()) == result.read_latency.maximum
        for source, summary in by_source.items():
            assert db.metrics.total("read.latency_usec", source=source) == summary.count

    def test_bad_clients_rejected(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="rocksdb"), workload)
        with pytest.raises(ConfigError):
            WorkloadRunner(db, clients=0)

    @pytest.mark.parametrize("system", ["rocksdb", "prismdb", "mutant"])
    def test_engine_freed_by_refcount_after_result(self, system):
        # Sampler and attribution on: the two parts that once tied the
        # runner and the engine into reference cycles.
        config = YCSBConfig(record_count=1_000, operation_count=1_500)
        workload = YCSBWorkload(config)
        db = build_system(SystemConfig(system=system), workload)
        engine = weakref.ref(db)
        enabled = gc.isenabled()
        gc.disable()
        try:
            runner = WorkloadRunner(db, sample_interval_ms=0.5, attribution=True)
            runner.load(workload)
            elapsed = runner.run(workload)
            result = runner.result(system, SystemConfig(system=system), elapsed)
            del db, runner
            assert engine() is None, "a reference cycle kept the engine alive"
        finally:
            if enabled:
                gc.enable()
        # A detached sampler keeps what it recorded.
        assert result.timeline["t_ms"] and result.attribution["ops_sampled"] > 0

    def test_scan_latency_recorded_separately(self):
        config = YCSBConfig(
            record_count=2_000, operation_count=2_000,
            read_proportion=0.5, update_proportion=0.3, scan_proportion=0.2,
        )
        workload = YCSBWorkload(config)
        db = build_system(SystemConfig(system="rocksdb"), workload)
        runner = WorkloadRunner(db, clients=8)
        runner.load(workload)
        runner.run(workload)
        assert len(runner.scan_latency) > 0
        total = (
            len(runner.read_latency)
            + len(runner.update_latency)
            + len(runner.scan_latency)
        )
        assert total == config.operation_count
        # Scans touch many records, so they must not drag point-read
        # percentiles: the populations are disjoint.
        result = runner.result("scan-split", SystemConfig(system="rocksdb"), 1.0)
        assert result.scan_latency.count == len(runner.scan_latency)
        assert result.scan_latency.mean > result.read_latency.mean


class TestRunExperiment:
    def test_end_to_end_result(self):
        result = run_experiment(SystemConfig(system="rocksdb"), SMALL)
        assert isinstance(result, RunResult)
        assert result.operations == SMALL.operation_count
        assert result.throughput_kops > 0
        assert result.read_latency.count > 0
        assert result.elapsed_usec > 0
        assert result.storage_cost_dollars > 0
        assert sum(result.reads_by_source.values()) > 0

    def test_mutant_reports_migrations(self, monkeypatch):
        # The default 1 s epoch never elapses in a run this short; a 1 ms
        # one puts optimiser passes inside the measured phase.
        monkeypatch.setattr(harness, "MutantOptions", partial(MutantOptions, epoch_usec=1_000))
        config = SystemConfig(system="mutant")
        workload = YCSBWorkload(SMALL)
        db = build_system(config, workload)
        assert db.mutant_options.epoch_usec == 1_000
        runner = WorkloadRunner(db)
        runner.load(workload)
        epochs = db.mutant_stats.epochs
        result = runner.result("mutant", config, runner.run(workload))
        assert db.mutant_stats.epochs > epochs
        assert result.migrations == db.mutant_stats.migrations > 0
        assert result.migration_bytes > 0

    def test_prism_reports_pins(self):
        workload_config = YCSBConfig(
            record_count=2_000, operation_count=6_000, warmup_operations=4_000,
            read_proportion=0.7, update_proportion=0.3,
        )
        config = SystemConfig(system="prismdb", pinning_threshold=0.5)
        workload = YCSBWorkload(workload_config)
        db = build_system(config, workload)
        runner = WorkloadRunner(db)
        runner.load(workload)
        runner.warmup(workload)
        assert db.tracker.is_full  # pinning is live from the first measured op
        result = runner.result("prismdb", config, runner.run(workload))
        assert result.pinned_records + result.pulled_up_records > 0

    def test_device_io_accounted(self):
        result = run_experiment(SystemConfig(system="rocksdb"), SMALL)
        assert result.total_io_write_bytes > 0
        assert result.total_io_read_bytes >= 0
        assert result.write_amplification > 1.0


class TestAttributionNeverPerturbs:
    """Attribution wraps the run loop's callables; it must change nothing else."""

    MIXED = YCSBConfig(
        record_count=1_500,
        operation_count=2_500,
        warmup_operations=500,
        read_proportion=0.5,
        update_proportion=0.4,
        scan_proportion=0.1,
        max_scan_length=20,
    )

    #: sha256 of each cell's attribution export. Mutant equals RocksDB at
    #: this size: no optimizer epoch runs.
    DIGESTS = {
        ("rocksdb", 0.0): "fc68fd6d2f033277c0d2362436a6df4b8c8c1c7a343e04b4fcb191756c794290",
        ("rocksdb", 0.5): "a6da6d393c15223f5d82a45505cac6561e1a19e13bf9adaae201bb0ffc806659",
        ("prismdb", 0.0): "44b9748f82f2c535b698597a659a81d8ad0dfdacd891628dadd114cfda9b3ce0",
        ("prismdb", 0.5): "64c117fa17557e5a725136c085f14eb9b76f6c743f611f47adb177f18fd87f26",
    }
    DIGESTS["mutant", 0.0] = DIGESTS["rocksdb", 0.0]
    DIGESTS["mutant", 0.5] = DIGESTS["rocksdb", 0.5]

    @pytest.mark.parametrize("row_cache_share", [0.0, 0.5])
    @pytest.mark.parametrize("system", ["rocksdb", "prismdb", "mutant"])
    def test_artifact_equal_with_and_without_attribution(self, system, row_cache_share):
        config = SystemConfig(system=system, row_cache_share=row_cache_share)
        plain = run_experiment(config, self.MIXED).to_json()
        assert plain.pop("attribution") == {}
        assert plain["metrics"]  # the registry snapshot is part of the comparison
        attributed = run_experiment(config, self.MIXED, attribution=True).to_json()
        ops = attributed.pop("attribution")
        assert ops["ops_offered"] == ops["ops_sampled"] == self.MIXED.operation_count
        assert attributed == plain
        # Every charged microsecond is attributed where it is charged:
        # what no charge site named is float association noise only.
        for op, info in ops["ops"].items():
            residual = sum(bucket["parts"].get(RESIDUAL_KEY, 0.0)
                           for bucket in info["buckets"])
            assert abs(residual) <= 1e-12 * info["total_usec"], op
        digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
        assert digest == self.DIGESTS[system, row_cache_share]
