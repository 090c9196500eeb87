"""Tests for the benchmark harness (small scales)."""

import pytest

from repro.baselines.mutant import MutantDB
from repro.baselines.rocksdb import RocksDBLike
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
        db = build_system(SystemConfig(system="rocksdb", cache_disabled=True), workload)
        assert db.cache.capacity_bytes == 0

    def test_tracker_sized_from_keyspace(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="prismdb", tracker_fraction=0.10), workload)
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
        by_source = runner.read_latency_by_source
        assert len(by_source) > 1
        assert len(runner.read_latency) == reads
        assert sum(len(recorder) for recorder in by_source.values()) == reads
        # The union is derived, not a second copy: same samples, same summary.
        merged = sorted(s for recorder in by_source.values() for s in recorder.samples)
        assert sorted(runner.read_latency.samples) == merged
        result = runner.result("reads", SystemConfig(system="prismdb"), 1.0)
        assert result.read_latency == runner.read_latency.summary()
        assert result.read_latency.count == reads

    def test_bad_clients_rejected(self):
        workload = YCSBWorkload(SMALL)
        db = build_system(SystemConfig(system="rocksdb"), workload)
        with pytest.raises(ConfigError):
            WorkloadRunner(db, clients=0)

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

    def test_mutant_reports_migrations(self):
        result = run_experiment(SystemConfig(system="mutant"), SMALL)
        assert result.migrations >= 0  # field present and non-negative

    def test_prism_reports_pins(self):
        result = run_experiment(
            SystemConfig(system="prismdb", pinning_threshold=0.5),
            YCSBConfig(record_count=2_000, operation_count=6_000, warmup_operations=4_000,
                       read_proportion=0.7, update_proportion=0.3),
        )
        assert result.pinned_records + result.pulled_up_records >= 0

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

    @pytest.mark.parametrize("row_cache_share", [0.0, 0.5])
    @pytest.mark.parametrize("system", ["rocksdb", "prismdb", "mutant"])
    def test_artifact_equal_with_and_without_attribution(self, system, row_cache_share):
        config = SystemConfig(system=system, row_cache_share=row_cache_share)
        plain = run_experiment(config, self.MIXED).to_json()
        assert plain.pop("attribution") == {}
        assert plain["metrics"]  # the registry snapshot is part of the comparison
        for sample_every in (1, 3):
            attributed = run_experiment(
                config, self.MIXED, attribution_sample_every=sample_every
            ).to_json()
            ops = attributed.pop("attribution")
            assert ops["ops_offered"] == self.MIXED.operation_count
            assert ops["ops_sampled"] == self.MIXED.operation_count // sample_every
            assert attributed == plain
