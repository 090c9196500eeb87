"""``python -m perfbench compare A.json B.json``.

One row per (workload, end-to-end metric): base, new, the ratio with its
base, and a verdict:

* ``better`` / ``worse`` — moved by more than the metric's bound *and*
  by more than the repeat spread of either side;
* ``within``  — inside the bound, and the spread is no wider than the bound;
* ``unresolved`` — the repeat spread is wider than the bound (or than the
  change), so the run cannot tell.

Exits 1 on any ``worse``; refuses (exit 2) inputs whose sizes, seeds or
``quick`` flags differ. The environment block is never compared.
"""

from __future__ import annotations

import json

from perfbench.metrics import E2E


class Incomparable(ValueError):
    """The two outputs were not produced by the same benchmark settings."""


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_comparable(base: dict, new: dict) -> None:
    for key in ("schema", "seed", "quick"):
        if base.get(key) != new.get(key):
            raise Incomparable(f"{key} differs: {base.get(key)!r} vs {new.get(key)!r}")
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        if base["workloads"][name]["sizes"] != new["workloads"][name]["sizes"]:
            raise Incomparable(f"{name}: sizes differ")
    if not set(base["workloads"]) & set(new["workloads"]):
        raise Incomparable("no workload in common")


def verdict(metric, base: dict, new: dict) -> tuple[float, str]:
    """(new / base, verdict) for one metric of one workload."""
    b, n = base["value"], new["value"]
    if b == n:
        return 1.0, "within"
    if b == 0:
        # Only failed_ops_frac and absent scans are ever zero.
        worse = (n > b) == (metric.better == "lower")
        return float("inf"), "worse" if worse else "better"
    ratio = n / b
    worsening = (ratio - 1.0) if metric.better == "lower" else (1.0 - ratio)
    spread = max(base.get("spread", 0.0), new.get("spread", 0.0))
    if abs(worsening) > metric.bound:
        if abs(worsening) <= spread:
            return ratio, "unresolved"
        return ratio, "worse" if worsening > 0 else "better"
    return ratio, "within" if spread <= metric.bound else "unresolved"


def compare(base: dict, new: dict) -> list[dict]:
    check_comparable(base, new)
    rows = []
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        base_metrics = base["workloads"][workload]["metrics"]
        new_metrics = new["workloads"][workload]["metrics"]
        for metric in E2E:
            if metric.name not in base_metrics or metric.name not in new_metrics:
                continue
            ratio, outcome = verdict(metric, base_metrics[metric.name], new_metrics[metric.name])
            rows.append({
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "base": base_metrics[metric.name]["value"],
                "new": new_metrics[metric.name]["value"],
                "ratio": ratio,
                "bound": metric.bound,
                "verdict": outcome,
            })
    return rows


def render(rows: list[dict], markdown: bool = False) -> str:
    header = ["workload", "metric", "base", "new", "new/base", "bound", "verdict"]
    table = [
        [row["workload"], row["metric"], f"{row['base']:.6g} {row['unit']}",
         f"{row['new']:.6g} {row['unit']}", f"{row['ratio']:.4f}x of {row['base']:.6g}",
         f"{row['bound']:.0%}", row["verdict"]]
        for row in rows
    ]
    if markdown:
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        lines += ["| " + " | ".join(cells) + " |" for cells in table]
        return "\n".join(lines)
    widths = [max(len(str(cells[i])) for cells in [header, *table]) for i in range(len(header))]
    return "\n".join(
        "  ".join(str(cell).ljust(width) for cell, width in zip(cells, widths)).rstrip()
        for cells in [header, *table]
    )
