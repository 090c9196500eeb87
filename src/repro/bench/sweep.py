"""Design-space sweep: who wins where across compaction policies.

Runs the compaction policy grid — shapes x read/write mixes x layouts
(tier gaps) — through the standard harness and renders a who-wins-where
table: one row per (layout, mix) cell, one column group per shape, the
winner by throughput starred. Sarkar et al. (arXiv:2202.04522) predict
the winner flips with the workload: leveling favours read-heavy mixes
(one run per level to probe), tiering favours write-heavy mixes (each
record rewritten once per level), lazy-leveling sits between. The sweep
measures where those crossovers land in *this* simulator, and — because
the system under test defaults to PrismDB — demonstrates that the
pinned router composes with every shape.

Each grid cell is an ordinary :class:`~repro.bench.harness.RunResult`;
pass ``--out DIR`` to save the schema-versioned JSON artifacts (one per
cell, named ``<label>.json``) plus a ``sweep.json`` index. Same seed +
same grid -> byte-identical artifacts; the CI smoke and
``tests/bench/test_sweep.py`` rely on that.

Usage::

    python -m repro.bench sweep                         # default grid
    python -m repro.bench sweep --shapes leveling tiering --mixes 95 50
    python -m repro.bench sweep --system rocksdb --layouts NNNTQ QQQQQ
    python -m repro.bench sweep --out benchmarks/results/sweep
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.harness import SYSTEM_NAMES, RunResult, SystemConfig, run_experiment
from repro.bench.reporting import fmt, format_experiment
from repro.lsm.options import COMPACTION_SHAPES
from repro.workloads.ycsb import YCSBConfig


def cell_label(system: str, layout: str, shape: str, read_pct: int) -> str:
    """Stable artifact label/filename stem for one grid cell."""
    return f"{system}-{layout}-{shape}-r{read_pct}"


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--system", default="prismdb", choices=SYSTEM_NAMES,
                        help="system under test (default: prismdb, so the "
                             "pinned router runs under every shape)")
    parser.add_argument("--shapes", nargs="+", default=list(COMPACTION_SHAPES),
                        choices=COMPACTION_SHAPES, metavar="SHAPE",
                        help=f"compaction shapes to compare (default: all; "
                             f"choices: {', '.join(COMPACTION_SHAPES)})")
    parser.add_argument("--mixes", nargs="+", type=int, default=[95, 50],
                        metavar="READ_PCT",
                        help="read percentages of the measured mixes "
                             "(default: 95 50)")
    parser.add_argument("--layouts", nargs="+", default=["NNNTQ"], metavar="CODE",
                        help="storage layout codes — add e.g. QQQQQ to widen "
                             "the tier gap axis (default: NNNTQ)")
    parser.add_argument("--records", type=int, default=6_000,
                        help="records loaded per cell (default: 6000)")
    parser.add_argument("--ops", type=int, default=10_000,
                        help="measured operations per cell (default: 10000)")
    parser.add_argument("--value-bytes", type=int, default=100,
                        help="value size in bytes (default: 100)")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop clients (default: 8)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + engine seed (default: 0)")
    parser.add_argument("--sample-interval-ms", type=float, default=None,
                        metavar="MS",
                        help="attach a timeline sampler to every cell "
                             "(adds a `timeline` section to each artifact)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="save one RunResult JSON per cell plus a "
                             "sweep.json index under DIR")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the grid (cells are "
                             "independent runs); the table and sweep.json "
                             "are byte-identical for any value (default: 1)")


def run_sweep_cell(args: argparse.Namespace, layout: str, shape: str,
                   read_pct: int) -> RunResult:
    """Run one grid cell through the standard load/run harness."""
    config = SystemConfig(
        system=args.system,
        layout_code=layout,
        compaction_shape=shape,
        clients=args.clients,
        seed=args.seed,
    )
    workload = YCSBConfig.read_update(
        read_pct,
        record_count=args.records,
        operation_count=args.ops,
        value_bytes=args.value_bytes,
        seed=args.seed,
    )
    return run_experiment(
        config,
        workload,
        label=cell_label(args.system, layout, shape, read_pct),
        sample_interval_ms=args.sample_interval_ms,
    )


def render_sweep_table(results: dict[tuple[str, int, str], RunResult],
                       layouts: list[str], mixes: list[int],
                       shapes: list[str]) -> tuple[list[str], list[list[str]]]:
    """The who-wins-where table: a row per (layout, mix), the throughput
    winner among shapes starred."""
    headers = ["layout", "mix (r/w)"]
    for shape in shapes:
        headers += [f"{shape} kops", f"{shape} p99 (us)", f"{shape} WA"]
    headers.append("winner")
    rows = []
    for layout in layouts:
        for read_pct in mixes:
            cells = [results[(layout, read_pct, shape)] for shape in shapes]
            winner = max(range(len(shapes)), key=lambda i: cells[i].throughput_kops)
            row = [layout, f"{read_pct}/{100 - read_pct}"]
            for i, result in enumerate(cells):
                star = "*" if i == winner else ""
                row += [
                    f"{fmt(result.throughput_kops)}{star}",
                    fmt(result.read_latency.p99),
                    fmt(result.write_amplification),
                ]
            row.append(shapes[winner])
            rows.append(row)
    return headers, rows


def _sweep_cell_worker(
    payload: tuple[argparse.Namespace, str, str, int],
) -> dict:
    """Spawn-safe pool entrypoint: run one cell, return its JSON artifact.

    Every cell goes through this worker (and the to_json/from_json round
    trip) even at ``--jobs 1``, so the single-process and fanned-out
    paths produce byte-for-byte the same artifacts.
    """
    args, layout, shape, read_pct = payload
    return run_sweep_cell(args, layout, shape, read_pct).to_json()


def run_sweep(args: argparse.Namespace) -> int:
    from repro.bench.fanout import stream_fan_out

    cells = [
        (layout, read_pct, shape)
        for layout in args.layouts
        for read_pct in args.mixes
        for shape in args.shapes
    ]
    raw = stream_fan_out(
        _sweep_cell_worker,
        [(args, layout, shape, read_pct) for layout, read_pct, shape in cells],
        getattr(args, "jobs", 1),
    )
    results: dict[tuple[str, int, str], RunResult] = {}
    # One progress line per cell as its result arrives, in cell order.
    for done, (cell, data) in enumerate(zip(cells, raw), start=1):
        results[cell] = RunResult.from_json(data)
        layout, read_pct, shape = cell
        print(
            f"[{done}/{len(cells)}] "
            f"{cell_label(args.system, layout, shape, read_pct)}"
            + (f" (jobs={args.jobs})" if args.jobs > 1 else ""),
            file=sys.stderr,
        )

    headers, rows = render_sweep_table(results, args.layouts, args.mixes, args.shapes)
    title = (
        f"Design-space sweep: {args.system} "
        f"({args.records} records, {args.ops} ops/cell)"
    )
    print(format_experiment(title, headers, rows))

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        index = {
            "system": args.system,
            "seed": args.seed,
            "records": args.records,
            "operations": args.ops,
            "grid": [],
        }
        for (layout, read_pct, shape), result in sorted(results.items()):
            path = os.path.join(args.out, f"{result.label}.json")
            result.save(path)
            index["grid"].append(
                {
                    "layout": layout,
                    "read_pct": read_pct,
                    "shape": shape,
                    "artifact": os.path.basename(path),
                    "throughput_kops": result.throughput_kops,
                    "read_p99_usec": result.read_latency.p99,
                    "write_amplification": result.write_amplification,
                }
            )
        index_path = os.path.join(args.out, "sweep.json")
        with open(index_path, "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"saved {len(results)} artifacts + index to {args.out}", file=sys.stderr)
    return 0
