"""Same-seed smoke runs must match the committed baselines exactly.

The perf gate (``scripts/perf_gate.py``) compares smoke artifacts with a
tolerance band; this test is the stricter, always-on version: a fresh
run of each system with the gate's exact parameters must show *zero
drift* against ``benchmarks/results/baseline_<system>.json``. Any
unintentional change to simulated behavior — block format, cache
accounting, merge order, RNG draw order — shows up here as a failing
metric diff, with the offending metrics named. The whole artifact —
registry histograms, timeline rows and all — must then equal the
committed file too.
"""

import json
import os

import pytest

from repro.bench.compare import compare_results
from repro.bench.harness import RunResult, SystemConfig, run_experiment
from repro.workloads.ycsb import YCSBConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: Mirrors scripts/perf_gate.py::smoke_run — keep in sync.
SMOKE_RECORDS = 3000
SMOKE_OPS = 5000
SMOKE_SEED = 0


def smoke_run(system: str) -> RunResult:
    config = SystemConfig(system=system, layout_code="NNNTQ", seed=SMOKE_SEED)
    workload = YCSBConfig.read_update(
        50, record_count=SMOKE_RECORDS, operation_count=SMOKE_OPS, seed=SMOKE_SEED
    )
    return run_experiment(
        config, workload, label=f"smoke/{system}", sample_interval_ms=5.0
    )


def scan_smoke_run() -> RunResult:
    """The range-scan smoke: the three system smokes are 50/50 read/update
    and never call ``scan``, so this case pins the scan path's simulated
    side (fetch order, latency accumulation, cache and device tallies).
    Shaped like perfbench's ``scan-cold``: a RocksDB baseline, uniform
    keys, 45/5/50 read/insert/scan, data far larger than the cache."""
    config = SystemConfig(
        system="rocksdb", layout_code="NNNTQ", cache_fraction=0.02, seed=SMOKE_SEED
    )
    workload = YCSBConfig(
        record_count=SMOKE_RECORDS,
        operation_count=SMOKE_OPS,
        read_proportion=0.45,
        update_proportion=0.0,
        insert_proportion=0.05,
        scan_proportion=0.50,
        distribution="uniform",
        max_scan_length=50,
        seed=SMOKE_SEED,
    )
    return run_experiment(config, workload, label="smoke/scan", sample_interval_ms=5.0)


#: baseline name -> the run that must reproduce it.
SMOKE_CASES = {
    "rocksdb": lambda: smoke_run("rocksdb"),
    "prismdb": lambda: smoke_run("prismdb"),
    "mutant": lambda: smoke_run("mutant"),
    "scan": scan_smoke_run,
}


@pytest.mark.parametrize("system", list(SMOKE_CASES))
def test_smoke_run_matches_committed_baseline_exactly(system):
    baseline_path = os.path.join(RESULTS_DIR, f"baseline_{system}.json")
    if not os.path.exists(baseline_path):
        pytest.skip(f"no committed baseline for {system}")
    baseline = RunResult.load(baseline_path)
    candidate = SMOKE_CASES[system]()
    drifted = [
        f"{diff.metric}: {diff.baseline} -> {diff.candidate}"
        for diff in compare_results(baseline, candidate, tolerance_pct=0.0)
        if diff.drift_pct != 0.0
    ]
    assert not drifted, (
        "simulated metrics drifted from committed baseline "
        "(regenerate with scripts/perf_gate.py --rebaseline if intentional; "
        "baseline_scan.json: `RunResult.save` of this module's scan_smoke_run()):\n"
        + "\n".join(drifted)
    )
    # Beyond the compared scalars: every registry series and timeline row.
    with open(baseline_path, encoding="utf-8") as fh:
        assert candidate.to_json() == json.load(fh)
