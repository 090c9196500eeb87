#!/usr/bin/env python
"""Opt-in perf gate: smoke-run every system, persist artifacts, diff.

Invoked from ``scripts/check.sh`` when ``REPRO_PERF_GATE`` is set (any
value but ``0``). For each system (rocksdb / prismdb / mutant) it runs a
small seeded YCSB-A workload with timeline sampling on — plus a 4-shard
``fleet`` smoke through the router/pool/merge path — then:

1. writes the full run artifact to
   ``benchmarks/results/smoke_<system>.json``;
2. appends one trajectory point (throughput, read p99, write amp per
   system) to the top-level ``BENCH_SMOKE.json``;
3. if a committed baseline ``benchmarks/results/baseline_<system>.json``
   exists, compares against it with ``--tolerance`` (default 15%) and
   exits 1 on any regression. A missing baseline is created from the
   current run (first adoption) and the gate passes.

The simulation is deterministic, so identical code produces identical
artifacts; drift within tolerance is an intentional perf-relevant code
change that should be accompanied by refreshing the baselines
(``--rebaseline``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.compare import compare_results, comparison_table, regressions  # noqa: E402
from repro.bench.harness import RunResult, SystemConfig, run_experiment  # noqa: E402
from repro.bench.reporting import format_experiment  # noqa: E402
from repro.workloads.ycsb import YCSBConfig  # noqa: E402

RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
SMOKE_FILE = os.path.join(REPO_ROOT, "BENCH_SMOKE.json")
SYSTEMS = ("rocksdb", "prismdb", "mutant")


def smoke_run(system: str, *, records: int, ops: int, seed: int) -> RunResult:
    config = SystemConfig(system=system, layout_code="NNNTQ", seed=seed)
    workload = YCSBConfig.read_update(
        50, record_count=records, operation_count=ops, seed=seed
    )
    return run_experiment(
        config, workload, label=f"smoke/{system}", sample_interval_ms=5.0
    )


def fleet_smoke_run(*, seed: int, jobs: int) -> RunResult:
    """The 4-shard fleet smoke: router + pool + merge, gated like a system.

    Results are bit-identical for any ``jobs`` value, so the gate's
    baseline is valid regardless of how many workers ran it.
    """
    from repro.fleet.runner import FleetConfig, default_tenants, run_fleet

    config = FleetConfig(
        shards=4,
        tenants=default_tenants(2, keys_per_tenant=1_500),
        total_operations=6_000,
        seed=seed,
        # Smoke shards simulate only a few ms; sample sub-ms so the
        # merged timeline has rows and the device pool sees real bytes.
        sample_interval_ms=0.5,
    )
    return run_fleet(config, jobs=jobs)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def _load_history() -> dict:
    history: dict = {"schema": 1, "points": []}
    if os.path.exists(SMOKE_FILE):
        try:
            with open(SMOKE_FILE, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict) and isinstance(loaded.get("points"), list):
                history = loaded
        except (OSError, json.JSONDecodeError):
            pass  # corrupt history: start over rather than fail the gate
    return history


def _write_history(history: dict) -> None:
    with open(SMOKE_FILE, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _point_key(point: dict) -> tuple[str, str]:
    """A point's identity for duplicate detection.

    Two points are duplicates when they have the same commit and
    identical *simulated* system metrics. Wall-clock seconds are a
    real-time measurement that jitters between otherwise identical runs,
    so they are excluded — re-running the gate on an unchanged tree
    should not grow the trajectory.
    """
    systems = {
        name: {
            key: value
            for key, value in metrics.items()
            if key != "wall_clock_sec"
        }
        for name, metrics in point.get("systems", {}).items()
    }
    return point.get("commit", ""), json.dumps(systems, sort_keys=True)


def prune_duplicate_points(points: list[dict]) -> tuple[list[dict], int]:
    """Collapse consecutive duplicate points, keeping each first occurrence."""
    kept: list[dict] = []
    for point in points:
        if kept and _point_key(kept[-1]) == _point_key(point):
            continue
        kept.append(point)
    return kept, len(points) - len(kept)


def append_trajectory_point(
    results: dict[str, RunResult], wall_clock: dict[str, float]
) -> None:
    """Append one per-PR trajectory point to BENCH_SMOKE.json.

    Skips the append (leaving the file untouched) when the new point
    duplicates the last one — same commit, same simulated metrics — so
    repeated gate runs on an unchanged tree add one point, not many.
    """
    history = _load_history()
    point = {
        "commit": git_commit(),
        "unix_time": int(time.time()),
        "systems": {
            system: {
                "throughput_kops": result.throughput_kops,
                "read_p99_usec": result.read_latency.p99,
                "update_p99_usec": result.update_latency.p99,
                "write_amplification": result.write_amplification,
                # Real seconds the smoke run took, *not* simulated time:
                # the one metric here that tracks simulator speed rather
                # than simulated behaviour.
                "wall_clock_sec": round(wall_clock[system], 4),
            }
            for system, result in results.items()
        },
    }
    points = history["points"]
    if points and _point_key(points[-1]) == _point_key(point):
        print(
            "[perf-gate] trajectory point matches the last one "
            f"(commit {point['commit']}, identical simulated metrics); "
            "not appending a duplicate"
        )
        return
    points.append(point)
    _write_history(history)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=15.0,
                        help="allowed bad-direction drift in %% (default: 15)")
    parser.add_argument("--records", type=int, default=3_000)
    parser.add_argument("--ops", type=int, default=5_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rebaseline", action="store_true",
                        help="overwrite the committed baselines with this run")
    parser.add_argument("--fleet-jobs", type=int, default=1,
                        help="worker processes for the fleet smoke (results "
                             "are jobs-invariant; default: 1)")
    parser.add_argument("--prune-duplicates", action="store_true",
                        help="maintenance mode: collapse consecutive "
                             "duplicate points already in BENCH_SMOKE.json "
                             "and exit (no smoke runs)")
    args = parser.parse_args(argv)

    if args.prune_duplicates:
        history = _load_history()
        history["points"], removed = prune_duplicate_points(history["points"])
        _write_history(history)
        print(
            f"[perf-gate] pruned {removed} duplicate point(s); "
            f"{len(history['points'])} remain in {SMOKE_FILE}"
        )
        return 0

    os.makedirs(RESULTS_DIR, exist_ok=True)
    results: dict[str, RunResult] = {}
    wall_clock: dict[str, float] = {}
    failed = False

    def gate(name: str, result: RunResult) -> None:
        nonlocal failed
        results[name] = result
        smoke_path = os.path.join(RESULTS_DIR, f"smoke_{name}.json")
        result.save(smoke_path)
        baseline_path = os.path.join(RESULTS_DIR, f"baseline_{name}.json")
        if args.rebaseline or not os.path.exists(baseline_path):
            shutil.copyfile(smoke_path, baseline_path)
            print(f"[perf-gate] {name}: baseline written to {baseline_path}")
            return
        baseline = RunResult.load(baseline_path)
        diffs = compare_results(baseline, result, tolerance_pct=args.tolerance)
        bad = regressions(diffs)
        if bad:
            failed = True
            headers, rows = comparison_table(diffs, only_drift=True)
            print(
                format_experiment(
                    f"[perf-gate] {name}: REGRESSION vs {baseline_path}",
                    headers,
                    rows,
                    notes=f"{len(bad)} metric(s) beyond {args.tolerance:g}% tolerance",
                )
            )
        else:
            print(
                f"[perf-gate] {name}: ok "
                f"({result.throughput_kops:.1f} kops, "
                f"read p99 {result.read_latency.p99:.1f} us, "
                f"WA {result.write_amplification:.2f})"
            )

    for system in SYSTEMS:
        started = time.perf_counter()
        result = smoke_run(
            system, records=args.records, ops=args.ops, seed=args.seed
        )
        wall_clock[system] = time.perf_counter() - started
        gate(system, result)

    # The fleet smoke rides the same gate: its merged artifact compares
    # like any system's, and its wall clock lands in the trajectory so
    # the fan-out path's simulator speed is tracked per PR.
    started = time.perf_counter()
    fleet_result = fleet_smoke_run(seed=args.seed, jobs=args.fleet_jobs)
    wall_clock["fleet"] = time.perf_counter() - started
    gate("fleet", fleet_result)

    append_trajectory_point(results, wall_clock)
    print(f"[perf-gate] trajectory point recorded in {SMOKE_FILE}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
