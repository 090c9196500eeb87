"""Heap bytes per loaded record and per recorded sample, pinned.

The allocation-side twin of the calls-per-op budgets: what the
simulator keeps alive per record, beyond the file bytes the record
itself occupies, is deterministic for a Python version — so a per-key
table that creeps back in fails here rather than in a fleet run's RSS.
"""

import gc
import importlib
import pkgutil
import random
import tracemalloc

import pytest

import repro.workloads
from repro.bench.harness import SystemConfig, WorkloadRunner, build_system
from repro.common import rng as rng_module
from repro.common.stats import LatencyRecorder
from repro.core import tracker as tracker_module
from repro.core.mapper import ClockDistributionMapper
from repro.core.tracker import ClockTracker
from repro.fleet.workload import TenantSpec, owned_indices
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from repro.workloads.zipfian import ScrambledZipfianGenerator, ZipfianGenerator

RECORDS = 20_000
#: Measured 27.2 B/record (hash column 8, per-table metadata, the index
#: columns, tracker entries); 32.7 with an index object per block and a
#: (clock, tag) tuple per tracked key, ~99 while the workload interned
#: every key (key bytes ~49, list slot 8), 216.6 with a process-wide
#: hash memo as well.
BUDGET_BYTES_PER_RECORD = 28.5
#: The background-job log, which that load runs with off: measured
#: 221.3 B per job record (a named 11-tuple, two floats, three byte
#: counts); its 591 jobs would lift the load to 33.0 B/record, past
#: BUDGET_BYTES_PER_RECORD, so the log cannot be always on.
BUDGET_BYTES_PER_JOB_RECORD = 240
SAMPLES = 20_000
#: An unboxed double; a list of float objects retains ~32 B per sample.
BUDGET_BYTES_PER_SAMPLE = 8.5
TENANT_KEYS = 100_000
#: A 4-byte index column; a tuple of boxed ints retains ~36 B per key.
BUDGET_BYTES_PER_OWNED_KEY = 5
READ_OPS = 5_000
#: Measured 0.35 B per cached byte (unboxed restart offsets, key peeks,
#: entry and window objects); 0.53 with a tuple of boxed restart offsets
#: per block; a cache that copied each block it holds is >= 1.5.
BUDGET_HEAP_PER_CACHED_BYTE = 0.40
TRACKED_KEYS = 10_000
#: Measured 67.6 B per tracked key beyond its key bytes (dict slot and
#: index, ring slot; the packed clock/tag entry is a cached small int);
#: a (clock, tag) tuple per key made it 123.6.
BUDGET_BYTES_PER_TRACKED_KEY = 72
#: A compaction job's heap high water beyond its output tables' bytes
#: may be a fixed cost (the bloom scratch, builders, per-call objects)
#: plus a cost per input record, over every job of a write-heavy run.
#: Measured, at 170 B/record, the most fixed cost any job needs is
#: 39,876 B (a 126-record job); the widest, 2,182 records from 18
#: files, holds 342,143 B (156.8 B/record). With a bytes copy of every
#: survivor held for the whole job and boxed seqno, span, size and hash
#: columns, that job held 1,033,934 B (473.8 B/record) and needed
#: 662,994 B of fixed cost.
BUDGET_JOB_FIXED_BYTES = 44 * 1024
BUDGET_JOB_BYTES_PER_INPUT_RECORD = 170
ZIPF_KEYS = 100_000
ZIPF_DRAWS = 50_000
#: What a scrambled zipfian generator retains after ZIPF_DRAWS draws,
#: its random state included: measured 4.0 KB; a rank -> index memo
#: made it ~1.5 MB.
BUDGET_GENERATOR_BYTES = 8 * 1024


def traced_bytes(build):
    """(result of ``build()``, bytes it left allocated)."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        made = build()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, after - before


def module_containers(module) -> dict:
    """Module-level dicts, lists and sets (dunder names excluded)."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_load_phase_heap_per_record_stays_in_budget():
    workload = YCSBWorkload(
        YCSBConfig(record_count=RECORDS, operation_count=0, value_bytes=100, seed=1)
    )

    def load():
        db = build_system(SystemConfig(system="prismdb", layout_code="NNNTQ"), workload)
        WorkloadRunner(db).load(workload)
        return db

    db, traced = traced_bytes(load)
    beyond_files = (traced - db.total_data_bytes()) / RECORDS
    assert beyond_files <= BUDGET_BYTES_PER_RECORD, f"{beyond_files:.1f} B/record"


def test_a_job_record_is_a_few_hundred_bytes():
    workload = YCSBWorkload(
        YCSBConfig(record_count=RECORDS, operation_count=0, value_bytes=100, seed=1)
    )
    db = build_system(SystemConfig(system="prismdb", layout_code="NNNTQ"), workload)
    db.executor.jobs = []
    gc.collect()
    tracemalloc.start()
    try:
        WorkloadRunner(db).load(workload)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        jobs = len(db.executor.jobs)
        db.executor.jobs = None
        gc.collect()
        per_job = (held - tracemalloc.get_traced_memory()[0]) / jobs
    finally:
        tracemalloc.stop()
    assert jobs > 500
    assert per_job <= BUDGET_BYTES_PER_JOB_RECORD, f"{per_job:.1f} B/job record"


def test_a_read_run_keeps_no_copy_of_the_blocks_it_caches():
    # read-hot's shape: PrismDB, 95/5 zipf-0.99, a cache of 10 % of the data.
    workload = YCSBWorkload(
        YCSBConfig(record_count=RECORDS, operation_count=READ_OPS, value_bytes=100, seed=1)
    )
    db = build_system(SystemConfig(system="prismdb", layout_code="NNNTQ"), workload)
    runner = WorkloadRunner(db)
    runner.load(workload)
    gc.collect()
    tracemalloc.start()  # before the run: the load caches no block
    try:
        runner.run(workload)
        gc.collect()
        cached = db.cache.used_bytes
        held, _ = tracemalloc.get_traced_memory()
        db.cache.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # What the run keeps alive in the cache beyond the file bytes its
    # blocks are windows over.
    assert cached > 0.9 * db.cache.capacity_bytes
    assert freed / cached <= BUDGET_HEAP_PER_CACHED_BYTE, f"{freed / cached:.2f} B/cached B"


def test_tracker_keeps_one_small_int_per_tracked_key():
    # read-hot's key popularity: zipf-0.99 over five times the capacity,
    # with the CLOCK hand run after every read as the read lane does.
    rng = random.Random(5)
    zipf = ZipfianGenerator(5 * TRACKED_KEYS, 0.99, rng)
    # Keys are made outside the trace: their bytes are the data's.
    keys = [f"user{i:012d}".encode() for i in range(5 * TRACKED_KEYS)]
    reads = [(keys[zipf.next_index()], rng.randrange(1, 4)) for _ in range(10 * TRACKED_KEYS)]

    def track():
        tracker = ClockTracker(TRACKED_KEYS, ClockDistributionMapper())
        for key, version in reads:
            tracker.on_read(key, version)
            tracker.run_evictions()
        return tracker

    tracker, traced = traced_bytes(track)
    assert len(tracker) == TRACKED_KEYS
    per_key = traced / TRACKED_KEYS
    assert per_key <= BUDGET_BYTES_PER_TRACKED_KEY, f"{per_key:.1f} B/tracked key"


def test_a_compaction_job_holds_its_columns_and_one_output_file():
    # write-heavy's shape: PrismDB, 20/80 read/update, zipf-0.99.
    workload = YCSBWorkload(
        YCSBConfig(record_count=RECORDS, operation_count=RECORDS, value_bytes=100,
                   read_proportion=0.2, update_proportion=0.8, seed=1)
    )
    db = build_system(SystemConfig(system="prismdb", layout_code="NNNTQ"), workload)
    executor, stats = db.executor, db.executor.stats
    execute = executor.execute
    jobs = []  # (heap beyond output bytes, input records)

    def traced_execute(job):
        records_in, written = stats.records_in, stats.bytes_written
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        execute(job)
        peak = tracemalloc.get_traced_memory()[1]
        count = stats.records_in - records_in
        if count:  # a trivial move reads nothing
            jobs.append((peak - held - (stats.bytes_written - written), count))

    executor.execute = traced_execute
    runner = WorkloadRunner(db)
    gc.collect()
    tracemalloc.start()
    try:
        runner.load(workload)
        runner.run(workload)
    finally:
        tracemalloc.stop()
    fixed, beyond, count = max(
        (beyond - BUDGET_JOB_BYTES_PER_INPUT_RECORD * count, beyond, count)
        for beyond, count in jobs
    )
    assert fixed <= BUDGET_JOB_FIXED_BYTES, f"{beyond} B for {count} records in"


def test_a_key_generator_keeps_nothing_per_draw():
    def draw():
        generator = ScrambledZipfianGenerator(ZIPF_KEYS, 0.99, random.Random(3))
        for _ in range(ZIPF_DRAWS):
            generator.next_index()
        return generator

    _, traced = traced_bytes(draw)
    assert traced <= BUDGET_GENERATOR_BYTES, f"{traced} B after {ZIPF_DRAWS} draws"


def test_no_module_level_table_grows_with_the_data():
    # Hashing keys leaves at most the shared prefix states behind...
    containers = module_containers(rng_module)
    assert "_PREFIX_STATES" in containers
    for name, value in containers.items():
        assert len(value) <= rng_module._PREFIX_STATES_MAX, name
    # ...and version tags and workload keys leave nothing at all.
    modules = [tracker_module, repro.workloads] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(repro.workloads.__path__, "repro.workloads.")
    ]
    for module in modules:
        assert module_containers(module) == {}, module.__name__


def test_recorded_latency_samples_are_unboxed():
    uniform = random.Random(7).uniform

    def record():
        # Each sample is a fresh float, as an operation's latency is.
        recorder = LatencyRecorder()
        for _ in range(SAMPLES):
            recorder.record(uniform(0.0, 500.0))
        return recorder

    recorder, traced = traced_bytes(record)
    assert len(recorder) == SAMPLES
    assert traced / SAMPLES <= BUDGET_BYTES_PER_SAMPLE, f"{traced / SAMPLES:.2f} B/sample"


def test_ownership_columns_are_four_bytes_per_key_and_read_only():
    tenants = (TenantSpec("reader", 60_000), TenantSpec("writer", TENANT_KEYS - 60_000))
    # The uncached body: a cache hit would allocate nothing.
    per_tenant, traced = traced_bytes(lambda: owned_indices.__wrapped__(tenants, 8, 64))
    assert sum(len(column) for columns in per_tenant for column in columns) == TENANT_KEYS
    per_key = traced / TENANT_KEYS
    assert per_key <= BUDGET_BYTES_PER_OWNED_KEY, f"{per_key:.2f} B/key"
    column = per_tenant[0][0]
    with pytest.raises(TypeError):
        column[0] = 1
    with pytest.raises(TypeError):
        column[0:1] = column[1:2]
