"""Command-line entry point: experiments, reports, timelines, comparisons.

Usage::

    python -m repro.bench                           # catalogue + subcommands
    python -m repro.bench run table1 fig4 table3    # analytic, fast
    python -m repro.bench report --metrics          # registry-driven report
    python -m repro.bench report --save run.json    # persist a run artifact
    python -m repro.bench timeline run.json --series throughput_kops
    python -m repro.bench compare a.json b.json --tolerance 5
    python -m repro.bench explain run.json         # latency attribution table
    python -m repro.bench explain a.json b.json    # decompose the p99 delta
    python -m repro.bench sweep --out results/sweep # compaction design space
    REPRO_BENCH_SCALE=quick python -m repro.bench run all
    python -m cProfile -s cumulative -m repro.bench run fig9a  # hot spots

Exit codes: 0 on success, 1 when ``compare`` finds a regression beyond
tolerance, 2 on usage errors / unknown experiments.

Installed as the ``repro-bench`` console script (see pyproject.toml).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import experiments as exp
from repro.bench.reporting import (
    format_experiment,
    render_timeline_sparklines,
    render_timeline_table,
    timeline_to_csv,
)

#: name -> (title, callable, needs_runner)
EXPERIMENTS = {
    "table1": ("Table 1: storage technology characteristics", exp.table1_devices, False),
    "fig2a": ("Figure 2a: RocksDB throughput by storage configuration", exp.fig2a_rocksdb_storage, True),
    "fig3": ("Figure 3: writes and reads across levels", exp.fig3_level_distribution, True),
    "table2": ("Table 2: point reads by level, cache disabled", exp.table2_read_levels, True),
    "fig4": ("Figure 4: cost vs latency, all 243 configurations", exp.fig4_cost_latency, False),
    "table3": ("Table 3: storage costs", exp.table3_storage_costs, False),
    "fig6": ("Figure 6: CLOCK distribution convergence", exp.fig6_clock_distribution, False),
    "fig9a": ("Figure 9a: throughput by system and configuration", exp.fig9a_throughput, True),
    "fig9b": ("Figure 9b: throughput vs read/update mix", exp.fig9b_throughput_mixes, True),
    "fig10ab": ("Figure 10a/b: latency percentiles", exp.fig10ab_latencies, True),
    "fig10cd": ("Figure 10c/d: average latencies vs mix", exp.fig10cd_latency_mixes, True),
    "fig11": ("Figure 11: request distributions", exp.fig11_distributions, True),
    "table4": ("Table 4: block cache hit rates", exp.table4_hit_rates, True),
    "fig12": ("Figure 12: I/O and write amplification", exp.fig12_io_amplification, True),
    "fig13": ("Figure 13: throughput without DRAM caching", exp.fig13_no_cache, True),
    "fig14": ("Figure 14: pinning threshold sweep", exp.fig14_pinning_threshold, True),
    "ablation-components": ("Ablation: PrismDB mechanisms", exp.ablation_components, True),
    "ablation-tracker": ("Ablation: tracker CLOCK bits", exp.ablation_tracker_params, True),
    "ext-latency-breakdown": ("Extension: read latency by serving source", exp.ext_latency_breakdown, True),
    "ext-caching-granularity": ("Extension: block vs object caching (§3.3)", exp.ext_caching_granularity, True),
    "ext-scan-workload": ("Extension: scan-heavy workload", exp.ext_scan_workload, True),
    "ext-design-space": ("Extension: compaction design space (shape x mix)", exp.ext_design_space, True),
}

#: Default series plotted by ``timeline`` when --series is not given.
DEFAULT_TIMELINE_SERIES = (
    "throughput_kops",
    "read_p99_usec",
    "cache.hit_rate",
    "memtable.bytes",
    "l0.files",
)


def _print_listing() -> None:
    print(__doc__)
    print("Available experiments:")
    for name, (title, _, needs_runner) in EXPERIMENTS.items():
        kind = "simulation" if needs_runner else "analytic"
        print(f"  {name:22s} {title} [{kind}]")
    print("  report                 Registry-driven run report"
          " (see --help) [simulation]")
    print("  timeline               Time-series view of a saved run artifact")
    print("  compare                Regression-gated diff of two run artifacts")
    print("  explain                Per-request latency attribution: render one"
          " artifact or diff two")
    print("  sweep                  Compaction design-space grid"
          " (shapes x mixes x layouts) [simulation]")


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    runner = exp.shared_runner()
    for name in names:
        title, func, needs_runner = EXPERIMENTS[name]
        headers, rows = func(runner) if needs_runner else func()
        print(format_experiment(title, headers, rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import run_report

    return run_report(args)


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.bench.harness import RunResult

    timeline = RunResult.load(args.artifact).timeline
    if not timeline:
        raise ValueError(
            f"artifact {args.artifact} has no timeline; re-run with "
            f"`report --save FILE --sample-interval-ms N`"
        )
    available = sorted(timeline.get("series", {}))
    if args.list_series:
        for name in available:
            print(name)
        return 0
    names = args.series or [
        name for name in DEFAULT_TIMELINE_SERIES if name in timeline["series"]
    ]
    unknown = [name for name in names if name not in timeline.get("series", {})]
    if unknown:
        print(
            f"unknown series: {', '.join(unknown)}\n"
            f"available: {', '.join(available)}",
            file=sys.stderr,
        )
        return 2
    if args.format == "sparkline":
        rendered = render_timeline_sparklines(timeline, names)
    elif args.format == "table":
        rendered = render_timeline_table(timeline, names)
    elif args.format == "csv":
        rendered = timeline_to_csv(timeline, names)
    else:  # json
        rendered = json.dumps(timeline, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered if rendered.endswith("\n") else rendered + "\n")
        print(f"wrote {args.format} timeline to {args.out}")
    else:
        print(rendered)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.compare import run_compare

    return run_compare(args)


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.bench.explain import run_explain

    return run_explain(args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweep import run_sweep

    return run_sweep(args)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.bench.compare import add_compare_arguments
    from repro.bench.report import add_report_arguments

    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate paper artifacts and inspect runs.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    run_p = sub.add_parser(
        "run", help="run experiments by name ('all' for every one)"
    )
    run_p.add_argument("names", nargs="+", metavar="EXPERIMENT",
                       help="experiment names (listed by the bare command); "
                            "'all' runs everything")
    run_p.set_defaults(func=_cmd_run)

    report_p = sub.add_parser(
        "report", help="run one workload and report from the metrics registry"
    )
    add_report_arguments(report_p)
    report_p.set_defaults(func=_cmd_report)

    timeline_p = sub.add_parser(
        "timeline",
        help="render the time series of a run artifact saved by `report --save`",
    )
    timeline_p.add_argument("artifact", metavar="ARTIFACT",
                            help="run artifact written by `report --save`")
    timeline_p.add_argument("--series", action="append", metavar="NAME",
                            help="series to render (repeatable; default: a "
                                 "standard set)")
    timeline_p.add_argument("--list-series", action="store_true",
                            help="print available series names and exit")
    timeline_p.add_argument("--format", default="sparkline",
                            choices=("sparkline", "table", "csv", "json"))
    timeline_p.add_argument("--out", metavar="FILE", default=None,
                            help="write the rendering here instead of stdout")
    timeline_p.set_defaults(func=_cmd_timeline)

    compare_p = sub.add_parser(
        "compare",
        help="diff two run artifacts; exit 1 on regression beyond tolerance",
    )
    add_compare_arguments(compare_p)
    compare_p.set_defaults(func=_cmd_compare)

    from repro.bench.explain import add_explain_arguments

    explain_p = sub.add_parser(
        "explain",
        help="render one artifact's latency attribution or diff two",
    )
    add_explain_arguments(explain_p)
    explain_p.set_defaults(func=_cmd_explain)

    from repro.bench.sweep import add_sweep_arguments

    sweep_p = sub.add_parser(
        "sweep",
        help="compaction design-space grid: shapes x mixes x layouts, "
             "who-wins-where table + per-cell artifacts",
    )
    add_sweep_arguments(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        _print_listing()
        return 0
    parser = build_parser()
    try:
        namespace = parser.parse_args(args)
    except SystemExit as exc:  # argparse exits on --help (0) and usage (2)
        code = exc.code
        return code if isinstance(code, int) else 2
    from repro.errors import ReproError

    try:
        return namespace.func(namespace)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
