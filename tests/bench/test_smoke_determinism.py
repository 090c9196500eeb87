"""Same-seed smoke runs must match the committed baselines exactly.

This is the repository's determinism gate: a fresh run of each smoke
cell must show *zero drift* against
``benchmarks/results/baseline_<name>.json``. Any unintentional change
to simulated behavior — block format, cache accounting, merge order,
RNG draw order — shows up here as a failing metric diff, with the
offending metrics named. The whole artifact — registry histograms,
timeline rows and all — must then equal the committed file too.

``SMOKE_CASES`` is the one definition of these cells (the fleet cell is
``fast_config()`` in ``tests/fleet/test_fleet_determinism.py``);
``python scripts/rebaseline.py`` rewrites every baseline from them.
"""

import json
import os
from functools import partial

import pytest

from repro.bench.compare import compare_results
from repro.bench.harness import RunResult, SystemConfig, run_experiment
from repro.workloads.ycsb import YCSBConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

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
    **{system: partial(smoke_run, system) for system in ("rocksdb", "prismdb", "mutant")},
    "scan": scan_smoke_run,
}


@pytest.mark.parametrize("system", list(SMOKE_CASES))
def test_smoke_run_matches_committed_baseline_exactly(system):
    with open(os.path.join(RESULTS_DIR, f"baseline_{system}.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    baseline = RunResult.from_json(committed)
    candidate = SMOKE_CASES[system]()
    drifted = [
        f"{diff.metric}: {diff.baseline} -> {diff.candidate}"
        for diff in compare_results(baseline, candidate, tolerance_pct=0.0)
        if diff.drift_pct != 0.0
    ]
    assert not drifted, (
        "simulated metrics drifted from committed baseline "
        "(if intentional, regenerate with `python scripts/rebaseline.py`):\n"
        + "\n".join(drifted)
    )
    # Beyond the compared scalars: every registry series and timeline row.
    assert candidate.to_json() == committed
