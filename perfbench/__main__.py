"""``python -m perfbench``: run the benchmark, or compare two outputs.

    python -m perfbench run [--seed N] [--workload NAME ...] [--out FILE]
                            [--trace] [--quick]
    python -m perfbench compare A.json B.json [--markdown]

``run`` executes each workload in a fresh subprocess, one at a time;
repeats (3; 5 for ``fleet-mixed``) are interleaved round-robin across
workloads so that a slow phase of the machine is spread over all of them. End-to-end metrics are
always measured with tracing off; ``--trace`` is the separate traced run
that adds the per-layer ledger (one untraced + one traced repeat per
workload). Exit status: 0 clean; 1 if any operation failed, repeats
disagreed on a simulated metric, or ``compare`` found a ``worse`` row;
2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench import compare as compare_mod
from perfbench import runner
from perfbench.metrics import E2E
from perfbench.workloads import SPECS

SCHEMA = 1
DEFAULT_SEED = 1


def _print_workload(name: str, block: dict) -> None:
    print(f"\n== {name} ==")
    metrics = block["metrics"]
    for metric in E2E:
        row = metrics.get(metric.name)
        if row is None:
            continue
        extras = []
        if "min" in row:
            extras.append(f"repeat totals: min {row['min']:.6g}  median {row['median']:.6g}  "
                          f"max {row['max']:.6g}")
        extras.append(f"repeats {row['n']}")
        if "samples" in row:
            extras.append(f"samples {row['samples']}")
        print(f"  {metric.name:<26} {row['value']:>14.6g} {metric.unit:<9} "
              f"[{metric.clock}; {'; '.join(extras)}]")
    ledger = block.get("ledger")
    if ledger:
        print(f"  -- per-layer ledger (traced run; reconciled with the untraced "
              f"{ledger['reference_us_per_op']:.4g} us/op) --")
        for metric_name, row in ledger["metrics"].items():
            print(f"  {metric_name:<46} {row['value']:>14.6g} {row['unit']}")


def run_command(args: argparse.Namespace) -> int:
    names = args.workload or list(SPECS)
    repeats = {name: 1 if args.quick else SPECS[name].repeats for name in names}
    output = {
        "schema": SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "repeats": repeats,
        "traced": args.trace,
        "environment": runner.environment(),
        "workloads": {},
    }
    collected: dict[str, list[dict]] = {name: [] for name in names}
    raw_spans: list[dict] = []
    try:
        for repeat in range(max(repeats.values())):
            for name in names:
                if repeat < repeats[name]:
                    print(f"[repeat {repeat + 1}/{repeats[name]}] {name}",
                          file=sys.stderr, flush=True)
                    collected[name].append(runner.run_repeat(name, args.seed, quick=args.quick))
        for name in names:
            output["workloads"][name] = runner.summarize(collected[name])
            if args.trace:
                print(f"[traced] {name}", file=sys.stderr, flush=True)
                traced = runner.run_repeat(name, args.seed, quick=args.quick, traced=True)
                block = output["workloads"][name]
                reference = "host_cpu_us_per_op" if block["sizes"].get("jobs") else "host_us_per_op"
                block["ledger"] = runner.ledger_block(
                    collected[name][-1], traced, block["metrics"][reference]["value"])
                raw_spans += [{"workload": name, **span} for span in traced["raw_spans"]]
    except (runner.SimMismatch, runner.RepeatFailed) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for name in names:
        _print_workload(name, output["workloads"][name])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(output, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if raw_spans:
            # The first spans of each traced run, verbatim, in exit order.
            with open(args.out + ".spans.jsonl", "w", encoding="utf-8") as fh:
                for span in raw_spans:
                    fh.write(json.dumps(span) + "\n")
    failed = sum(block["check"]["failed"] for block in output["workloads"].values())
    failed += sum(block["ledger"]["check"]["failed"]
                  for block in output["workloads"].values() if "ledger" in block)
    if failed:
        print(f"perfbench: {failed} operations failed verification", file=sys.stderr)
        return 1
    return 0


def compare_command(args: argparse.Namespace) -> int:
    try:
        rows = compare_mod.compare(compare_mod.load(args.base), compare_mod.load(args.new))
    except (compare_mod.Incomparable, OSError, KeyError, json.JSONDecodeError) as error:
        print(f"perfbench compare: {error}", file=sys.stderr)
        return 2
    print(compare_mod.render(rows, markdown=args.markdown))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--workload", action="append", choices=sorted(SPECS),
                     help="restrict to this workload (repeatable; default: all four)")
    run.add_argument("--out", metavar="FILE", help="also write the result as JSON")
    run.add_argument("--trace", action="store_true",
                     help="add the traced run and its per-layer ledger")
    run.add_argument("--quick", action="store_true",
                     help="ops / 10, 1 repeat: a smoke run, flagged quick in the output")
    run.set_defaults(handler=run_command)
    cmp_parser = commands.add_parser("compare", help="compare two run outputs")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("new")
    cmp_parser.add_argument("--markdown", action="store_true")
    cmp_parser.set_defaults(handler=compare_command)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
