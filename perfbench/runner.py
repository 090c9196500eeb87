"""Run repeats of a workload in fresh subprocesses and reduce them.

Shared by the ``python -m perfbench`` CLI and the driver-contract entry
point ``perfbench/run.py``. Repeats run one at a time, never
concurrently. Host values are reduced to their median (min, max and
repeat count kept beside it); simulated values must be identical across
repeats of one seed, otherwise :class:`SimMismatch` is raised.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from perfbench import ROOT, SRC
from perfbench.metrics import E2E_BY_NAME, PER_LAYER_UNITS, SIM_NAMES

#: A repeat is killed after this many seconds (the contract allows a run 180).
REPEAT_TIMEOUT_S = 170


class RepeatFailed(RuntimeError):
    """A workload subprocess exited non-zero or printed no result."""


class SimMismatch(RuntimeError):
    """Two repeats of one seed disagreed on a simulated metric."""


def run_repeat(workload: str, seed: int, *, quick: bool = False, traced: bool = False) -> dict:
    """One repeat in a fresh interpreter; returns the worker's JSON."""
    command = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
               "--seed", str(seed)]
    if quick:
        command.append("--quick")
    if traced:
        command.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # bytes hashing is salted per process; pin it so dict/set layouts —
    # and with them host time — do not vary between repeats for no reason.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(
            f"{workload} seed {seed}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def repeat_totals(repeat: dict) -> dict[str, float]:
    """The host metrics of one repeat, taken over its whole measured region."""
    host = repeat["host"]
    ops = host["ops_measured"]
    return {
        "setup_s": host["setup_s"],
        "host_us_per_op": host["measured_s"] * 1e6 / ops,
        "host_cpu_us_per_op": host["cpu_s"] * 1e6 / ops,
        "host_peak_rss_mb": host["peak_rss_mb"],
    }


def _quiet_seconds(repeats: list[dict], column: int, total_key: str) -> float:
    """Quiet-host time of the measured region of one seed.

    Every repeat executes the same ops in the same 1024-op slices, and a
    shared host only ever *adds* time (seconds-long slow bursts, up to
    +40 % here). So the region is rebuilt slice by slice from the
    fastest repeat of each slice. ``fleet-mixed`` has no slices (its
    shards run in child processes) and falls back to its fastest repeat.
    """
    if all("slices" in repeat["host"] for repeat in repeats):
        per_slice = zip(*([s[column] for s in repeat["host"]["slices"]] for repeat in repeats))
        return sum(min(values) for values in per_slice)
    return min(repeat["host"][total_key] for repeat in repeats)


def _quiet_spread(repeats: list[dict], column: int, total_key: str, estimate: float) -> float:
    """How far the estimate could be from the quiet value, as a share.

    Half of the largest shift any one repeat's absence would cause. On
    5 seeds x 5 repeats of each workload, the full leave-one-out shift
    of a three-repeat estimate overstated its actual distance from the
    five-repeat value about threefold; half of it tracks the 90th
    percentile of that distance.
    """
    if len(repeats) < 2:
        return 0.0
    without_one = max(
        _quiet_seconds(repeats[:i] + repeats[i + 1:], column, total_key)
        for i in range(len(repeats))
    )
    return (without_one - estimate) / estimate / 2.0


def check_sim_identical(repeats: list[dict]) -> None:
    first = repeats[0]["sim"]
    for other in repeats[1:]:
        if other["sim"] != first:
            diff = {k: (first.get(k), other["sim"].get(k))
                    for k in set(first) | set(other["sim"]) if first.get(k) != other["sim"].get(k)}
            raise SimMismatch(f"{repeats[0]['workload']}: simulated metrics differ: {diff}")


def summarize(repeats: list[dict]) -> dict:
    """Reduce the untraced repeats of one workload to its metric block.

    Host times report the quiet-host estimate (see
    :func:`_quiet_seconds`) with the min, median and max of the
    per-repeat totals beside it; ``setup_s`` and peak RSS report the
    median of the repeats. ``spread`` is what ``compare`` holds against
    the bound before it calls a difference resolved.
    """
    check_sim_identical(repeats)
    metrics: dict[str, dict] = {}
    ops = repeats[0]["host"]["ops_measured"]
    totals = [repeat_totals(repeat) for repeat in repeats]
    for name in totals[0]:
        values = [row[name] for row in totals]
        median = statistics.median(values)
        metrics[name] = {
            "value": median,
            "unit": E2E_BY_NAME[name].unit,
            "min": min(values),
            "median": median,
            "max": max(values),
            "n": len(values),
            # Robust sigma of one repeat (1.4826 x MAD), as a share.
            "spread": 1.4826 * statistics.median(abs(v - median) for v in values) / median,
        }
    for name, column, total_key in (("host_us_per_op", 0, "measured_s"),
                                    ("host_cpu_us_per_op", 1, "cpu_s")):
        quiet = _quiet_seconds(repeats, column, total_key)
        metrics[name]["value"] = quiet * 1e6 / ops
        metrics[name]["spread"] = _quiet_spread(repeats, column, total_key, quiet)
    sim = repeats[0]["sim"]
    counts = repeats[0]["sim_counts"]
    for name in SIM_NAMES:
        if name in sim:
            metrics[name] = {"value": sim[name], "unit": E2E_BY_NAME[name].unit,
                             "n": len(repeats)}
            if name in counts:
                metrics[name]["samples"] = counts[name]
    attempted = sum(repeat["check"]["attempted"] for repeat in repeats)
    failed = sum(repeat["check"]["failed"] for repeat in repeats)
    metrics["failed_ops_frac"] = {"value": failed / attempted, "unit": "fraction",
                                  "n": len(repeats)}
    metrics["ops_measured"] = {"value": ops, "unit": "ops", "n": len(repeats)}
    return {
        "sizes": repeats[0]["sizes"],
        "metrics": metrics,
        "check": {"attempted": attempted, "failed": failed},
    }


def ledger_block(untraced: dict, traced: dict, reference_us_per_op: float | None = None) -> dict:
    """Per-layer metric block from one untraced and one traced repeat.

    The traced run must reproduce the untraced run's simulated metrics
    bit for bit (``sim_space_amp`` aside, which an untraced fleet run
    cannot observe). ``reference_us_per_op`` is the untraced whole the
    layers are reconciled with and the tracing overhead is stated
    against: wall time per op — for ``fleet-mixed`` CPU time per op,
    because its traced run is in-process and serial (``jobs=1``) while
    its untraced wall time is spread over two processes.
    """
    from perfbench.ledger import attribute_overhead

    shared = set(untraced["sim"]) & set(traced["sim"])
    if any(untraced["sim"][name] != traced["sim"][name] for name in shared):
        raise SimMismatch(f"{traced['workload']}: tracing changed a simulated metric")
    jobs = untraced["sizes"].get("jobs")
    if reference_us_per_op is None:
        totals = repeat_totals(untraced)
        reference_us_per_op = totals["host_cpu_us_per_op" if jobs else "host_us_per_op"]
    metrics = dict(traced["ledger"]["metrics"])
    metrics.update(attribute_overhead(traced["ledger"], reference_us_per_op))
    metrics["trace.overhead_frac"] = metrics["trace.host_us_per_op"] / reference_us_per_op - 1.0
    host = untraced["host"]
    # Share of the pool's jobs x wall capacity that was spent on a CPU.
    metrics["fleet.fanout.parallel_efficiency"] = (
        host["cpu_s"] / (jobs * host["measured_s"]) if jobs else 0.0
    )
    for name in ("read_p50_usec", "read_p99_usec", "update_p99_usec", "scan_p99_usec",
                 "space_amp"):
        metrics[f"sim.{name}"] = traced["sim"].get(f"sim_{name}", 0.0)
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS.items()},
        "reference_us_per_op": reference_us_per_op,
        "layers": traced["ledger"]["layers"],
        "calibration": traced["ledger"]["calibration"],
        "unresolved": traced["ledger"]["unresolved"],
        "check": traced["check"],
    }


def environment() -> dict:
    """Where the numbers were taken; excluded from every comparison."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }
