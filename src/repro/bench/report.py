"""``python -m repro.bench report``: observability-driven run reports.

Runs one YCSB workload against one system and prints views derived
*entirely* from the run's :class:`~repro.obs.MetricsRegistry` snapshot —
the per-phase latency breakdown (the Fig. 10 reproduction), the full
metrics dump, and optionally the background-job log as a chrome trace
(one event per flush, trivial move and merge; Chrome's trace viewer and
Perfetto open it as written; see ``docs/OBSERVABILITY.md``).

Usage::

    python -m repro.bench report                       # breakdown table
    python -m repro.bench report --metrics             # full registry dump
    python -m repro.bench report --trace run.trace.json
    python -m repro.bench report --system rocksdb --ops 20000
"""

from __future__ import annotations

import argparse
import json

from repro.bench.harness import SystemConfig, WorkloadRunner, build_system
from repro.bench.reporting import (
    format_experiment,
    format_metrics_snapshot,
    latency_breakdown_table,
)
from repro.lsm.compaction import JobRecord
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``report`` options to ``parser`` (reused by the CLI)."""
    parser.add_argument("--system", default="prismdb",
                        choices=("rocksdb", "prismdb", "mutant"))
    parser.add_argument("--layout", default="NNNTQ", help="tier layout code")
    parser.add_argument("--records", type=int, default=5_000,
                        help="YCSB record count (default: 5000)")
    parser.add_argument("--ops", type=int, default=10_000,
                        help="measured operations (default: 10000)")
    parser.add_argument("--read-pct", type=int, default=50,
                        help="read percentage; 50 = YCSB-A (default: 50)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--metrics", action="store_true",
                        help="print the full metrics-registry snapshot")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the latency breakdown table")
    parser.add_argument("--json", action="store_true",
                        help="dump the raw snapshot as JSON instead of tables")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="log every background job of the run; write it "
                             "here as chrome-trace JSON")
    parser.add_argument("--save", metavar="FILE", default=None,
                        help="persist the whole RunResult as a JSON artifact "
                             "(usable with `repro.bench compare/timeline`)")
    parser.add_argument("--sample-interval-ms", type=float, default=None,
                        metavar="MS",
                        help="record a timeline, sampling every MS sim-ms "
                             "(default with --save: 10)")
    parser.add_argument("--attribution", action="store_true",
                        help="attribute per-request latency by (component, "
                             "tier); feeds `repro.bench explain`")


def chrome_trace(jobs: list[JobRecord]) -> dict:
    """The job log as chrome-trace JSON: one complete event per job.

    Each job kind is a process and each tier (``upper->lower`` for a job
    that crosses tiers) a thread of it, named by ``M`` metadata events.
    Ids follow first appearance, so identical runs give identical files.
    """
    pids: dict[str, int] = {}
    tids: dict[tuple[int, str], int] = {}
    meta, events = [], []
    for job in jobs:
        lane = job.upper_tier
        if job.lower_tier != lane:
            lane = f"{lane}->{job.lower_tier}"
        pid = pids.get(job.kind)
        if pid is None:
            pid = pids[job.kind] = len(pids) + 1
            meta.append(_metadata("process_name", pid, 0, job.kind))
        tid = tids.get((pid, lane))
        if tid is None:
            tid = tids[pid, lane] = sum(1 for owner, _ in tids if owner == pid)
            meta.append(_metadata("thread_name", pid, tid, lane))
        events.append({
            "name": job.kind, "cat": "repro", "ph": "X", "ts": job.start_usec,
            "dur": job.busy_usec, "pid": pid, "tid": tid,
            "args": {
                "level": job.upper_level, "tier": job.upper_tier,
                "lower_level": job.lower_level, "lower_tier": job.lower_tier,
                "inputs": job.inputs, "input_bytes": job.input_bytes,
                "upper_write_bytes": job.upper_write_bytes,
                "lower_write_bytes": job.lower_write_bytes,
            },
        })
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _metadata(name: str, pid: int, tid: int, label: str) -> dict:
    return {"name": name, "cat": "__metadata", "ph": "M", "ts": 0,
            "pid": pid, "tid": tid, "args": {"name": label}}


def run_report(args: argparse.Namespace) -> int:
    workload_config = YCSBConfig.read_update(
        args.read_pct,
        record_count=args.records,
        operation_count=args.ops,
        seed=args.seed,
    )
    system_config = SystemConfig(
        system=args.system, layout_code=args.layout, seed=args.seed
    )
    workload = YCSBWorkload(workload_config)
    db = build_system(system_config, workload)
    if args.trace:
        # Fail on an unwritable path now, not after the simulation ran.
        with open(args.trace, "w", encoding="utf-8"):
            pass
        db.executor.jobs = []
    sample_interval = args.sample_interval_ms
    if sample_interval is None and args.save:
        sample_interval = 10.0  # artifacts should carry a timeline
    runner = WorkloadRunner(
        db,
        clients=system_config.clients,
        sample_interval_ms=sample_interval,
        attribution=args.attribution,
    )
    runner.load(workload)
    elapsed = runner.run(workload)
    result = runner.result(
        f"{args.system}/{args.layout}", system_config, elapsed
    )

    if args.json:
        print(json.dumps(result.metrics, indent=2, sort_keys=True))
    else:
        # Default to the breakdown view when no section was requested.
        show_breakdown = args.breakdown or not args.metrics
        if show_breakdown:
            headers, rows = latency_breakdown_table(result.metrics)
            print(
                format_experiment(
                    f"Latency breakdown: {result.label} "
                    f"({result.operations} ops, "
                    f"{result.throughput_kops:.1f} kops/s)",
                    headers,
                    rows,
                    notes="Derived from the metrics registry alone (Fig. 10).",
                )
            )
        if args.metrics:
            print(f"== Metrics registry: {result.label} ==")
            print(format_metrics_snapshot(result.metrics))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(db.executor.jobs), handle, sort_keys=True)
        print(f"wrote {len(db.executor.jobs)} job events to {args.trace}")
    if args.save:
        result.save(args.save)
        print(f"saved run artifact to {args.save}")
    return 0

