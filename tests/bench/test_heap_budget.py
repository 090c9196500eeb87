"""Heap bytes per loaded record, pinned.

The allocation-side twin of the calls-per-op budgets: what the
simulator keeps alive per record, beyond the file bytes the record
itself occupies, is deterministic for a Python version — so a per-key
table that creeps back in fails here rather than in a fleet run's RSS.
"""

import gc
import tracemalloc

from repro.bench.harness import SystemConfig, WorkloadRunner, build_system
from repro.common import rng as rng_module
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload

RECORDS = 20_000
#: Measured 98.8 B/record; 216.6 with a process-wide hash memo and a
#: dict-backed interner (key bytes ~49, interner slot 8, table metadata).
BUDGET_BYTES_PER_RECORD = 130


def test_load_phase_heap_per_record_stays_in_budget():
    workload = YCSBWorkload(
        YCSBConfig(record_count=RECORDS, operation_count=0, value_bytes=100, seed=1)
    )
    gc.collect()
    tracemalloc.start()
    try:
        db = build_system(SystemConfig(system="prismdb", layout_code="NNNTQ"), workload)
        WorkloadRunner(db).load(workload)
        gc.collect()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(workload.interner) == RECORDS
    beyond_files = (traced - db.total_data_bytes()) / RECORDS
    assert beyond_files <= BUDGET_BYTES_PER_RECORD, f"{beyond_files:.1f} B/record"

    # Hashing 20 k keys left nothing per key behind.
    containers = {
        name: value
        for name, value in vars(rng_module).items()
        if isinstance(value, (dict, list, set))
    }
    assert "_PREFIX_STATES" in containers
    for name, value in containers.items():
        assert len(value) <= rng_module._PREFIX_STATES_MAX, name
