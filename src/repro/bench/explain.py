"""``repro.bench explain``: render and diff per-request latency provenance.

One artifact renders its attribution table — per op type and percentile
band, which (component, tier) buckets the latency went to. Two artifacts
diff one band of one op type and decompose the latency delta into
per-component contributions, the "p99 delta is 83% flash block reads"
answer a regression hunt needs (see docs/OBSERVABILITY.md for a worked
example).

Artifacts must be schema-2 (saved with ``report --save --attribution``);
schema-1 artifacts and runs recorded without attribution exit 2 with an
upgrade hint rather than a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import RunResult
from repro.bench.reporting import format_experiment
from repro.errors import ConfigError
from repro.obs.attribution import (
    BAND_LABELS,
    BANDS,
    LatencyAttribution,
    attribution_table,
    diff_attribution,
)

#: Hint printed when an artifact cannot feed ``explain``.
_UPGRADE_HINT = (
    "re-run with `repro.bench report --save FILE --attribution` to record "
    "per-request attribution"
)


def _load_attribution(path: str) -> dict | None:
    """The artifact's attribution block, or None (with a hint) if absent.

    Raises :class:`ConfigError` naming the file when the block is
    malformed or recorded with a layout this build does not read.
    """
    result = RunResult.load(path)
    if not result.attribution:
        print(
            f"error: artifact {path} has no attribution data; {_UPGRADE_HINT}",
            file=sys.stderr,
        )
        return None
    try:
        LatencyAttribution.from_dict(result.attribution)
    except ConfigError as exc:
        raise ConfigError(
            f"artifact {path} was recorded with an attribution layout this "
            f"build does not read ({exc}); re-record it with "
            f"`repro.bench report --save FILE --attribution`"
        ) from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"artifact {path} has a malformed attribution block: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return result.attribution


def _explain_one(path: str, data: dict, args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    headers, rows = attribution_table(data, top=args.top)
    if not rows:
        print(f"error: artifact {path} attributed no operations", file=sys.stderr)
        return 2
    notes = (
        f"{data.get('ops_sampled', 0)} ops attributed; "
        f"{len(data.get('slow_ops', []))} slow ops retained"
    )
    print(format_experiment(f"Latency attribution: {path}", headers, rows, notes=notes))
    return 0


def _explain_diff(paths: list[str], blocks: list[dict], args: argparse.Namespace) -> int:
    diff = diff_attribution(blocks[0], blocks[1], op=args.op, band=args.band)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
        return 0
    if diff["baseline_ops"] <= 0 or diff["candidate_ops"] <= 0:
        print(
            f"error: no {args.op!r} ops attributed in one of the artifacts",
            file=sys.stderr,
        )
        return 2
    headers = ["component/tier", "baseline us/op", "candidate us/op", "delta", "share"]
    contributors = diff["contributors"]
    if args.top > 0:
        contributors = contributors[: args.top]
    rows = [
        [
            c["key"],
            f"{c['baseline_usec']:.2f}",
            f"{c['candidate_usec']:.2f}",
            f"{c['delta_usec']:+.2f}",
            f"{c['share']:+6.1%}",
        ]
        for c in contributors
    ]
    band_label = BAND_LABELS[args.band]
    lead = contributors[0] if contributors else None
    notes = (
        f"{args.op} {band_label}: {diff['baseline_usec']:.1f} -> "
        f"{diff['candidate_usec']:.1f} us/op "
        f"({diff['delta_usec']:+.1f} us/op); "
        f"{diff['explained_fraction']:.1%} of the delta is explained by the "
        f"components above"
    )
    if lead is not None and diff["delta_usec"]:
        notes += (
            f"\n{abs(lead['share']):.0%} of the {band_label} delta is "
            f"{lead['key']}"
        )
    print(
        format_experiment(
            f"Attribution diff: {paths[0]} (baseline) vs {paths[1]} (candidate)",
            headers,
            rows,
            notes=notes,
        )
    )
    return 0


def run_explain(args: argparse.Namespace) -> int:
    if len(args.artifacts) not in (1, 2):
        print("error: explain takes one or two artifacts", file=sys.stderr)
        return 2
    blocks = []
    for path in args.artifacts:
        data = _load_attribution(path)
        if data is None:
            return 2
        blocks.append(data)
    if len(blocks) == 1:
        return _explain_one(args.artifacts[0], blocks[0], args)
    return _explain_diff(args.artifacts, blocks, args)


def add_explain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "artifacts",
        nargs="+",
        metavar="ARTIFACT",
        help="one artifact to render, or baseline + candidate to diff",
    )
    parser.add_argument(
        "--op",
        default="read",
        help="op type to diff between two artifacts (default: read)",
    )
    parser.add_argument(
        "--band",
        default="p99",
        choices=BANDS,
        help="percentile band to diff (default: p99)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="limit each band/diff to its N largest components (default: all)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw attribution block / diff as JSON",
    )

