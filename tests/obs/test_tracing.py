"""Tests for the background-job log and the chrome trace written from it."""

import json
from collections import Counter

import pytest

from repro.bench.harness import SystemConfig, WorkloadRunner, build_system
from repro.bench.report import chrome_trace
from repro.common import KIB
from repro.lsm import DBOptions, LsmDB
from repro.lsm.compaction import JobRecord
from repro.workloads import YCSBConfig, YCSBWorkload

MERGE_KINDS = ("leveled", "tiered")


def logged_db():
    """A tiny DB that flushes, merges and moves within a few hundred puts."""
    options = DBOptions(
        memtable_bytes=2 * KIB,
        target_file_bytes=2 * KIB,
        level1_target_bytes=4 * KIB,
        level_size_multiplier=4,
        block_bytes=512,
        block_cache_bytes=16 * KIB,
    )
    db = LsmDB.create("NNNTQ", options)
    db.executor.jobs = []
    return db


class TestGoldenDbTrace:
    """A tiny put/get/compact sequence yields a stable, valid job log."""

    def test_flush_and_compaction_spans(self):
        db = logged_db()
        for i in range(300):
            db.put(f"key{i:05d}".encode(), b"x" * 64)
        for i in range(0, 300, 50):
            db.get(f"key{i:05d}".encode())
        jobs = db.executor.jobs
        kinds = {job.kind for job in jobs}
        assert "flush" in kinds
        assert kinds & {"trivial-move", *MERGE_KINDS}
        assert all(isinstance(job, JobRecord) and job.start_usec >= 0.0 for job in jobs)
        flushes = [job for job in jobs if job.kind == "flush"]
        assert all(job.busy_usec > 0.0 for job in flushes), (
            "a flush carries the modeled device busy time"
        )
        assert all(job.inputs == 0 and job.upper_write_bytes == 0 for job in flushes)
        # A trivial move writes no table (its busy time is the MANIFEST's).
        moves = [job for job in jobs if job.kind == "trivial-move"]
        assert all(job.upper_write_bytes == job.lower_write_bytes == 0 for job in moves)
        assert all(job.inputs == 1 and job.input_bytes > 0 for job in moves)

    def test_trace_is_deterministic(self):
        first = logged_db()
        second = logged_db()
        for db in (first, second):
            for i in range(200):
                db.put(f"key{i:05d}".encode(), b"x" * 64)
        assert first.executor.jobs == second.executor.jobs
        assert chrome_trace(first.executor.jobs) == chrome_trace(second.executor.jobs)


class TestRecording:
    def test_log_is_off_by_default(self):
        db = LsmDB.create("NNNTQ", DBOptions(memtable_bytes=2 * KIB))
        for i in range(100):
            db.put(f"key{i:05d}".encode(), b"x" * 64)
        assert db.stats.flush_count > 0
        assert db.executor.jobs is None

    def test_span_records_simulated_interval(self):
        db = LsmDB.create("NNNTQ")
        db.executor.jobs = []
        db.put(b"key", b"value")
        db.clock.advance(500.0)
        start = db.clock.now
        device = db.layout.tier_for_level(0).device
        busy_before = device.stats.busy_usec
        db.flush()
        (job,) = db.executor.jobs
        assert job.kind == "flush"
        # Background I/O does not move the clock.
        assert job.start_usec == start == db.clock.now >= 500.0
        # A flush on NNNTQ touches only the NVM device (table and MANIFEST).
        assert job.busy_usec == pytest.approx(device.stats.busy_usec - busy_before)
        assert job.busy_usec > 0.0
        assert job.lower_write_bytes == db.stats.flush_bytes


class TestSerialization:
    def test_chrome_json_envelope(self):
        db = logged_db()
        for i in range(300):
            db.put(f"key{i:05d}".encode(), b"x" * 64)
        jobs = db.executor.jobs
        trace = json.loads(json.dumps(chrome_trace(jobs)))
        assert trace["displayTimeUnit"] == "ms"
        complete = [event for event in trace["traceEvents"] if event["ph"] == "X"]
        assert len(complete) == len(jobs)
        for event, job in zip(complete, jobs):
            assert (event["name"], event["ts"], event["dur"]) == (
                job.kind, job.start_usec, job.busy_usec)
            assert event["args"] == {
                "level": job.upper_level, "tier": job.upper_tier,
                "lower_level": job.lower_level, "lower_tier": job.lower_tier,
                "inputs": job.inputs, "input_bytes": job.input_bytes,
                "upper_write_bytes": job.upper_write_bytes,
                "lower_write_bytes": job.lower_write_bytes,
            }


def make_job(kind: str, upper_tier: str, lower_tier: str) -> JobRecord:
    return JobRecord(kind, 0.0, 1.0, 0, upper_tier, 1, lower_tier, 1, 100, 0, 100)


class TestMetadata:
    JOBS = [
        make_job("flush", "nvm", "nvm"),
        make_job("leveled", "nvm", "nvm"),
        make_job("leveled", "nvm", "tlc"),
        make_job("flush", "nvm", "nvm"),
        make_job("leveled", "tlc", "qlc"),
    ]

    def test_metadata_names_processes_and_threads(self):
        events = chrome_trace(self.JOBS)["traceEvents"]
        meta = [event for event in events if event["ph"] == "M"]
        # Metadata comes first, naming a process per kind, a thread per lane.
        assert events[: len(meta)] == meta
        assert [(e["name"], e["pid"], e["tid"], e["args"]["name"]) for e in meta] == [
            ("process_name", 1, 0, "flush"),
            ("thread_name", 1, 0, "nvm"),
            ("process_name", 2, 0, "leveled"),
            ("thread_name", 2, 0, "nvm"),
            ("thread_name", 2, 1, "nvm->tlc"),
            ("thread_name", 2, 2, "tlc->qlc"),
        ]

    def test_pid_tid_assignment_is_deterministic(self):
        events = chrome_trace(self.JOBS)["traceEvents"]
        lanes = [(e["pid"], e["tid"]) for e in events if e["ph"] == "X"]
        assert lanes == [(1, 0), (2, 0), (2, 1), (1, 0), (2, 2)]


SYSTEMS = ("rocksdb", "prismdb", "mutant")
#: Shape -> (records loaded, job kinds the run must log). Lazy-leveling
#: only differs from tiering once its leveled bottom level fills. With
#: 8 k ops PrismDB's leveling and tiering runs pin records (leveling also
#: pulls some up), so ``compaction.records{kind}`` is compared at nonzero
#: values.
SHAPES = {
    "leveling": (8_000, {"flush", "trivial-move", "leveled"}),
    "tiering": (8_000, {"flush", "tiered"}),
    "lazy-leveling": (40_000, {"flush", "tiered", "leveled"}),
}


@pytest.fixture(scope="module", params=[(s, h) for s in SYSTEMS for h in SHAPES],
                ids=[f"{s}-{h}" for s in SYSTEMS for h in SHAPES])
def logged_run(request):
    system, shape = request.param
    workload = YCSBWorkload(
        YCSBConfig.read_update(50, record_count=SHAPES[shape][0], operation_count=8_000, seed=3)
    )
    db = build_system(SystemConfig(system=system, compaction_shape=shape), workload)
    db.executor.jobs = []
    runner = WorkloadRunner(db)
    runner.load(workload)
    runner.run(workload)
    return db, SHAPES[shape][1]


class TestJobLogConservation:
    """The job log, ``CompactionStats`` and the registry tell one story."""

    def test_written_bytes_add_up(self, logged_run):
        db, _ = logged_run
        jobs, stats = db.executor.jobs, db.executor.stats
        written = sum(job.upper_write_bytes + job.lower_write_bytes for job in jobs)
        assert written == stats.bytes_written + db.stats.flush_bytes
        assert sum(job.input_bytes for job in jobs if job.kind in MERGE_KINDS) == stats.bytes_read

    def test_per_level_sums_match(self, logged_run):
        db, _ = logged_run
        per_level = Counter()
        for job in db.executor.jobs:
            per_level[job.upper_level] += job.upper_write_bytes
            per_level[job.lower_level] += job.lower_write_bytes
        assert +per_level == db.executor.stats.per_level_write_bytes

    def test_record_counts_by_kind(self, logged_run):
        db, expected_kinds = logged_run
        kinds = Counter(job.kind for job in db.executor.jobs)
        stats = db.executor.stats
        assert set(kinds) == expected_kinds
        assert kinds["flush"] == db.stats.flush_count
        assert kinds["trivial-move"] == stats.trivial_moves
        assert sum(kinds[kind] for kind in MERGE_KINDS) == stats.compactions

    def test_registry_totals_match_stats(self, logged_run):
        db, _ = logged_run
        metrics, stats = db.metrics, db.executor.stats
        assert metrics.total("compaction.write_bytes") == stats.bytes_written + db.stats.flush_bytes
        assert metrics.total("compaction.count") == stats.compactions
        assert metrics.total("compaction.trivial_moves") == stats.trivial_moves
        assert metrics.total("compaction.read_bytes") == stats.bytes_read
        for kind in ("pinned", "pulled_up", "tombstone_dropped"):
            assert metrics.total("compaction.records", kind=kind) == stats.records.get(kind, 0)
