"""Integration tests: each registry series reads the right stats field.

The stats objects (DeviceStats, CacheStats, RowCacheStats, DBStats,
TrackerStats) are the only tally of an engine event; the registry's
series for them are read-through views. These tests check that every
name reads the field it claims to, that the views stay views (a pushed
counter beside a stats field would be a second tally that can drift),
and that the one byte stream the device series leave out — grouped WAL
appends, ``DeviceStats.bytes_written_grouped`` — is named and exact.
"""

import json
from collections import Counter

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.harness import SystemConfig, WorkloadRunner, build_system
from repro.bench.reporting import format_metrics_snapshot, latency_breakdown_table
from repro.lsm.block_cache import BlockType
from repro.obs import View
from repro.workloads import YCSBConfig, YCSBWorkload

#: Fixed YCSB-A mini-run (50/50 read/update, zipfian) per the issue.
YCSB_A = YCSBConfig(
    record_count=2_000,
    operation_count=4_000,
    read_proportion=0.50,
    update_proportion=0.50,
    seed=7,
)

#: (system, wal_sync_every): the paper's sync-every-append WAL, and the
#: group commit every fleet run uses.
RUNS = [("prismdb", 1), ("rocksdb", 1), ("prismdb", 8), ("rocksdb", 8)]


def mini_run(system, wal_sync_every=1, row_cache_share=0.0):
    """One completed mini-run: (db, RunResult)."""
    workload = YCSBWorkload(YCSB_A)
    config = SystemConfig(
        system=system, seed=7, wal_sync_every=wal_sync_every,
        row_cache_share=row_cache_share,
    )
    db = build_system(config, workload)
    runner = WorkloadRunner(db, clients=config.clients)
    runner.load(workload)
    elapsed = runner.run(workload)
    return db, runner.result(system, config, elapsed)


@pytest.fixture(
    scope="module",
    params=RUNS,
    ids=[system if sync == 1 else f"{system}-wal{sync}" for system, sync in RUNS],
)
def finished_run(request):
    return mini_run(*request.param)


class TestByteConservation:
    def test_per_tier_write_bytes_match_device_model(self, finished_run):
        db, _ = finished_run
        for tier in db.layout.tiers:
            stats = tier.device.stats
            registry_bytes = db.metrics.total("device.write_bytes", tier=tier.name)
            assert registry_bytes + stats.bytes_written_grouped == stats.bytes_written, tier.name
            foreground = db.metrics.value(
                "device.write_bytes", tier=tier.name, mode="foreground"
            )
            assert foreground == stats.bytes_written_foreground, tier.name

    def test_grouped_wal_bytes_only_under_group_commit(self, finished_run):
        db, _ = finished_run
        grouped = db.layout.wal_tier.device.stats.bytes_written_grouped
        assert (grouped > 0) == (db.options.wal_sync_every > 1)
        for tier in db.layout.tiers:
            if tier is not db.layout.wal_tier:
                assert tier.device.stats.bytes_written_grouped == 0, tier.name

    def test_per_tier_read_bytes_match_device_model(self, finished_run):
        db, _ = finished_run
        for tier in db.layout.tiers:
            registry_bytes = db.metrics.total("device.read_bytes", tier=tier.name)
            assert registry_bytes == tier.device.stats.bytes_read, tier.name

    def test_total_write_bytes_match_run_result(self, finished_run):
        db, result = finished_run
        grouped = sum(tier.device.stats.bytes_written_grouped for tier in db.layout.tiers)
        assert db.metrics.total("device.write_bytes") + grouped == result.total_io_write_bytes
        assert db.metrics.total("device.read_bytes") == result.total_io_read_bytes

    def test_io_counts_match_device_model(self, finished_run):
        db, _ = finished_run
        for tier in db.layout.tiers:
            assert db.metrics.value("device.reads", tier=tier.name) == (
                tier.device.stats.reads
            )
            assert db.metrics.value("device.writes", tier=tier.name) == (
                tier.device.stats.writes
            )
            assert db.metrics.value("device.busy_usec", tier=tier.name) == (
                tier.device.stats.busy_usec
            )

    def test_device_series_read_lifetime_stats_after_reopen(self):
        # A reopened instance shares the machine's devices; its device
        # series read their lifetime stats instead of restarting at zero.
        db, _ = mini_run("rocksdb")
        reopened = db.reopen()
        wal_tier = reopened.layout.wal_tier.name
        assert reopened.metrics.total("device.write_bytes", tier=wal_tier) > 0
        for _ in range(2):
            for tier in reopened.layout.tiers:
                stats = tier.device.stats
                for registry in (db.metrics, reopened.metrics):
                    for mode, field in (("foreground", "bytes_written_foreground"),
                                        ("background", "bytes_written_background")):
                        assert registry.value(
                            "device.write_bytes", tier=tier.name, mode=mode
                        ) == getattr(stats, field), (tier.name, mode)
                    assert registry.total("device.read_bytes", tier=tier.name) == (
                        stats.bytes_read
                    )
                    assert registry.value("device.reads", tier=tier.name) == stats.reads
                    assert registry.value("device.writes", tier=tier.name) == stats.writes
            reopened.put(b"after-reopen", b"v" * 100)
            reopened.flush()


#: The families whose every series must read a stats field.
READ_THROUGH = (
    "device.read_bytes", "device.write_bytes", "device.reads", "device.writes",
    "device.busy_usec", "cache.", "rowcache.", "db.", "tracker.", "prism.", "compaction.",
)


@pytest.mark.parametrize("system", ["rocksdb", "prismdb", "mutant"])
def test_stats_backed_series_are_read_through(system):
    db, _ = mini_run(system, row_cache_share=0.2)
    checked = set()
    for name in db.metrics.names():
        if not name.startswith(READ_THROUGH):
            continue
        for labels, instrument in db.metrics.series(name):
            assert isinstance(instrument, View), (name, labels)
            checked.add(name.split(".")[0])
    expected = {"device", "cache", "rowcache", "db", "compaction"}
    if system == "prismdb":
        expected |= {"tracker", "prism"}
    assert checked == expected


class TestCacheConservation:
    def test_hits_and_misses_match_cache_stats(self, finished_run):
        db, _ = finished_run
        stats = db.cache.stats
        for block_type in BlockType:
            assert db.metrics.value("cache.hits", type=block_type.value) == (
                stats.hits.get(block_type, 0)
            ), block_type
            assert db.metrics.value("cache.misses", type=block_type.value) == (
                stats.misses.get(block_type, 0)
            ), block_type

    def test_every_block_lookup_is_hit_or_miss(self, finished_run):
        db, _ = finished_run
        lookups = db.metrics.total("cache.hits") + db.metrics.total("cache.misses")
        assert lookups == sum(db.cache.stats.hits.values()) + sum(
            db.cache.stats.misses.values()
        )
        assert lookups > 0


class TestDbAndCompactionConservation:
    def test_reads_by_source_match_db_stats(self, finished_run):
        db, _ = finished_run
        by_source = db.stats.reads_by_source.as_dict()
        for source, count in by_source.items():
            assert db.metrics.value("db.reads", source=source) == count, source
        assert db.metrics.total("db.reads") == db.stats.user_reads

    def test_user_write_bytes_match(self, finished_run):
        db, _ = finished_run
        assert db.metrics.value("db.write_bytes") == db.stats.user_write_bytes
        assert db.metrics.value("db.flush.bytes") == db.stats.flush_bytes
        assert db.metrics.value("db.flush.count") == db.stats.flush_count

    def test_compaction_bytes_match(self, finished_run):
        db, _ = finished_run
        stats = db.executor.stats
        for level, n_bytes in stats.per_level_write_bytes.items():
            assert db.metrics.total("compaction.write_bytes", level=level) == n_bytes
        # Flush (level 0) is included in per-level writes; totals line up.
        assert db.metrics.total("compaction.write_bytes") == sum(
            stats.per_level_write_bytes.values()
        )
        assert db.metrics.total("compaction.read_bytes") == stats.bytes_read

    def test_op_histograms_cover_every_measured_op(self, finished_run):
        db, result = finished_run
        assert db.metrics.total("op.latency_usec") == result.operations
        assert db.metrics.total("read.latency_usec") == db.metrics.total(
            "op.latency_usec", op="read"
        )


class TestTrackerConservation:
    def test_tracker_counters_match_stats(self):
        workload = YCSBWorkload(YCSB_A)
        db = build_system(SystemConfig(system="prismdb", seed=7), workload)
        runner = WorkloadRunner(db, clients=8)
        runner.load(workload)
        runner.run(workload)
        stats = db.tracker.stats
        pairs = {
            "insert": stats.inserts,
            "version_hit": stats.version_hits,
            "version_mismatch": stats.version_mismatches,
            "eviction": stats.evictions,
            "decrement": stats.decrements,
            "hand_step": stats.hand_steps,
        }
        for kind, expected in pairs.items():
            assert db.metrics.value("tracker.events", kind=kind) == expected, kind
        assert db.metrics.value("tracker.occupancy") == len(db.tracker)
        assert db.metrics.value("prism.tracked_reads") == db.stats.user_reads


class TestReportViews:
    def test_breakdown_table_from_snapshot_alone(self, finished_run):
        _, result = finished_run
        headers, rows = latency_breakdown_table(result.metrics)
        assert headers[0] == "phase"
        phases = [row[0] for row in rows]
        assert any(p.startswith("op:") for p in phases)
        assert any(p.startswith("read from ") for p in phases)
        # Op shares sum to ~100 %.
        op_rows = [row for row in rows if row[0].startswith("op:")]
        total_share = sum(float(row[2].rstrip("%")) for row in op_rows)
        assert total_share == pytest.approx(100.0, abs=0.2)

    def test_snapshot_formats_without_error(self, finished_run):
        _, result = finished_run
        text = format_metrics_snapshot(result.metrics)
        assert "device.write_bytes" in text
        assert "op.latency_usec" in text

    def test_report_command_smoke(self, capsys, tmp_path):
        trace_path = str(tmp_path / "run.trace.json")
        assert bench_main(
            [
                "report",
                "--records", "500",
                "--ops", "800",
                "--metrics",
                "--breakdown",
                "--trace", trace_path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Latency breakdown" in out
        assert "Metrics registry" in out
        assert "job events" in out
        with open(trace_path) as handle:
            events = json.load(handle)["traceEvents"]
        names = Counter(event["name"] for event in events if event["ph"] == "X")
        assert names["flush"] > 0
        assert names["leveled"] + names["trivial-move"] > 0

    def test_report_via_bench_cli(self, capsys):
        assert bench_main(["report", "--records", "300", "--ops", "400"]) == 0
        assert "Latency breakdown" in capsys.readouterr().out
