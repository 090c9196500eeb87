"""Driver-contract entry point (the ``command`` of BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats the workload — each repeat a fresh subprocess with
its own set-up — until the measured regions add up to ``--seconds``
(at least the workload's ``repeats``, at most :data:`MAX_REPEATS`), and prints
the median of every host metric plus the simulated metrics, which must
not differ between repeats. ``--trace 1`` runs one untraced and one
traced repeat and prints every per-layer metric. The last line of
stdout is the one JSON object the contract asks for.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import runner  # noqa: E402
from perfbench.metrics import E2E  # noqa: E402
from perfbench.workloads import SPECS  # noqa: E402

MAX_REPEATS = 8
#: Stop starting repeats once this much wall time is spent (cap is 180 s).
WALL_BUDGET_S = 100.0


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    min_repeats = SPECS[workload].repeats
    repeats: list[dict] = []
    measured = 0.0
    while True:
        repeats.append(runner.run_repeat(workload, seed))
        measured += repeats[-1]["host"]["measured_s"]
        spent = time.monotonic() - started
        enough = len(repeats) >= min_repeats and measured >= seconds
        out_of_time = spent + spent / len(repeats) > WALL_BUDGET_S
        if enough or out_of_time or len(repeats) >= MAX_REPEATS:
            break
    summary = runner.summarize(repeats)
    metrics = {
        metric.name: {"value": summary["metrics"][metric.name]["value"], "unit": metric.unit}
        for metric in E2E if metric.driver
    }
    return {"attempted": summary["check"]["attempted"], "failed": summary["check"]["failed"],
            "metrics": metrics}


def traced_run(workload: str, seed: int) -> dict:
    untraced = runner.run_repeat(workload, seed)
    traced = runner.run_repeat(workload, seed, traced=True)
    block = runner.ledger_block(untraced, traced)
    attempted = untraced["check"]["attempted"] + traced["check"]["attempted"]
    failed = untraced["check"]["failed"] + traced["check"]["failed"]
    return {"attempted": attempted, "failed": failed, "metrics": block["metrics"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds)
    except (runner.SimMismatch, runner.RepeatFailed) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
