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

import repro.workloads
from repro.bench.harness import SystemConfig, WorkloadRunner, build_system
from repro.common import rng as rng_module
from repro.common.stats import LatencyRecorder
from repro.core import tracker as tracker_module
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

RECORDS = 20_000
#: Measured 32.5 B/record (hash column 8, per-table and per-block
#: metadata); ~99 while the workload interned every key (key bytes ~49,
#: list slot 8), 216.6 with a process-wide hash memo as well.
BUDGET_BYTES_PER_RECORD = 45
SAMPLES = 20_000
#: An unboxed double; a list of float objects retains ~32 B per sample.
BUDGET_BYTES_PER_SAMPLE = 8.5


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
