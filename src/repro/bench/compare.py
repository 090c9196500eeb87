"""``repro.bench compare``: regression-gated diff of two run artifacts.

Two :class:`~repro.bench.harness.RunResult` artifacts (written with
``RunResult.save`` / ``repro.bench report --save``) are
diffed metric-by-metric. Every metric gets a drift percentage; *gated*
metrics additionally have a direction — throughput and cache hit rates
regress downward, latencies / write amplification / I/O volume regress
upward — and a drift beyond ``--tolerance`` in the bad direction fails
the comparison (exit code 1). Two artifacts of the same seeded run
report zero drift everywhere: the simulation is deterministic, so any
drift at all is a code change, not noise.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

from repro.bench.harness import RunResult
from repro.bench.reporting import format_experiment

#: Metrics where a *decrease* beyond tolerance is a regression.
HIGHER_IS_BETTER = {
    "throughput_kops",
    "cache_hit_rate",
    "cache_hit_rate_data",
}

#: Metrics where an *increase* beyond tolerance is a regression.
LOWER_IS_BETTER_PREFIXES = (
    "read_latency.",
    "update_latency.",
    "scan_latency.",
    "write_amplification",
    "compaction_read_bytes",
    "compaction_write_bytes",
    "flush_bytes",
    "wal_bytes",
    "device_read_bytes.",
    "device_write_bytes.",
)

#: Latency summary columns worth diffing (count is informational).
_LATENCY_COLUMNS = ("mean", "p50", "p95", "p99", "maximum")


def comparable_scalars(result: RunResult) -> dict[str, float]:
    """Flatten one artifact into the ``metric -> value`` map ``compare``
    diffs. Latency populations contribute mean/p50/p95/p99/max (skipped
    when empty so a read-only run doesn't diff scan percentiles of 0)."""
    out: dict[str, float] = {
        "operations": float(result.operations),
        "elapsed_usec": result.elapsed_usec,
        "throughput_kops": result.throughput_kops,
        "cache_hit_rate": result.cache_hit_rate,
        "cache_hit_rate_data": result.cache_hit_rate_data,
        "compactions": float(result.compactions),
        "compaction_read_bytes": float(result.compaction_read_bytes),
        "compaction_write_bytes": float(result.compaction_write_bytes),
        "flush_bytes": float(result.flush_bytes),
        "wal_bytes": float(result.wal_bytes),
        "user_write_bytes": float(result.user_write_bytes),
        "write_amplification": result.write_amplification,
        "pinned_records": float(result.pinned_records),
        "pulled_up_records": float(result.pulled_up_records),
        "migrations": float(result.migrations),
        "migration_bytes": float(result.migration_bytes),
    }
    for name, summary in (
        ("read_latency", result.read_latency),
        ("update_latency", result.update_latency),
        ("scan_latency", result.scan_latency),
    ):
        if summary.count == 0:
            continue
        out[f"{name}.count"] = float(summary.count)
        for column in _LATENCY_COLUMNS:
            out[f"{name}.{column}"] = float(getattr(summary, column))
    for tier, count in sorted(result.device_read_bytes.items()):
        out[f"device_read_bytes.{tier}"] = float(count)
    for tier, count in sorted(result.device_write_bytes.items()):
        out[f"device_write_bytes.{tier}"] = float(count)
    return out


def _gate_direction(metric: str) -> int:
    """+1: regression when value rises; -1: when it falls; 0: ungated."""
    if metric in HIGHER_IS_BETTER:
        return -1
    if metric.startswith(LOWER_IS_BETTER_PREFIXES):
        # Latency counts are workload-shape facts, not quality.
        if metric.endswith(".count"):
            return 0
        return 1
    return 0


@dataclass(frozen=True)
class MetricDiff:
    """One row of a comparison."""

    metric: str
    baseline: float
    candidate: float
    drift_pct: float  # (candidate - baseline) / baseline * 100; inf if new
    regressed: bool

    @property
    def status(self) -> str:
        if self.regressed:
            return "REGRESSION"
        if self.drift_pct == 0.0:
            return "ok"
        direction = _gate_direction(self.metric)
        if direction != 0 and math.copysign(1.0, self.drift_pct) != direction:
            return "improved"
        return "drift"


def compare_results(
    baseline: RunResult, candidate: RunResult, *, tolerance_pct: float = 0.0
) -> list[MetricDiff]:
    """Diff every comparable scalar of two artifacts, baseline first."""
    if tolerance_pct < 0:
        raise ValueError(f"tolerance must be non-negative: {tolerance_pct}")
    a = comparable_scalars(baseline)
    b = comparable_scalars(candidate)
    diffs: list[MetricDiff] = []
    for metric in sorted(set(a) | set(b)):
        base = a.get(metric, 0.0)
        cand = b.get(metric, 0.0)
        if base == cand:
            drift = 0.0
        elif base == 0.0:
            drift = math.inf if cand > 0 else -math.inf
        else:
            drift = (cand - base) / abs(base) * 100.0
        direction = _gate_direction(metric)
        regressed = (
            direction != 0
            and drift != 0.0
            and math.copysign(1.0, drift) == direction
            and abs(drift) > tolerance_pct
        )
        diffs.append(MetricDiff(metric, base, cand, drift, regressed))
    return diffs


def regressions(diffs: list[MetricDiff]) -> list[MetricDiff]:
    return [diff for diff in diffs if diff.regressed]


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.3f}"


def _fmt_drift(drift: float) -> str:
    if drift == 0.0:
        return "0.0%"
    if math.isinf(drift):
        return "new" if drift > 0 else "gone"
    return f"{drift:+.2f}%"


def comparison_table(
    diffs: list[MetricDiff], *, only_drift: bool = False
) -> tuple[list[str], list[list[object]]]:
    """Rows for :func:`format_experiment`; regressions sort first."""
    headers = ["metric", "baseline", "candidate", "drift", "status"]
    rows = []
    ordered = sorted(diffs, key=lambda d: (not d.regressed, d.metric))
    for diff in ordered:
        if only_drift and diff.drift_pct == 0.0:
            continue
        rows.append(
            [
                diff.metric,
                _fmt_value(diff.baseline),
                _fmt_value(diff.candidate),
                _fmt_drift(diff.drift_pct),
                diff.status,
            ]
        )
    return headers, rows


def run_compare(args: argparse.Namespace) -> int:
    baseline = RunResult.load(args.baseline)
    candidate = RunResult.load(args.candidate)
    diffs = compare_results(baseline, candidate, tolerance_pct=args.tolerance)
    failed = regressions(diffs)
    headers, rows = comparison_table(diffs, only_drift=args.only_drift)
    if not rows:
        rows = [["(no drift)", "-", "-", "0.0%", "ok"]]
    verdict = (
        f"{len(failed)} regression(s) beyond {args.tolerance:g}% tolerance"
        if failed
        else f"no regressions at {args.tolerance:g}% tolerance"
    )
    print(
        format_experiment(
            f"Compare: {baseline.label} (baseline) vs {candidate.label} (candidate)",
            headers,
            rows,
            notes=verdict,
        )
    )
    return 1 if failed else 0


def add_compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("baseline", help="baseline run artifact (JSON)")
    parser.add_argument("candidate", help="candidate run artifact (JSON)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        metavar="PCT",
        help="allowed drift in the bad direction before failing (default: 0)",
    )
    parser.add_argument(
        "--only-drift",
        action="store_true",
        help="hide metrics with zero drift from the table",
    )

