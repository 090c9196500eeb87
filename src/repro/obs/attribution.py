"""Per-request latency provenance: where did *this* operation's time go?

The aggregate views (metrics registry, Fig. 10 breakdown) answer "where
does latency go on average"; this module answers the tail question the
paper's headline claims hinge on — *which component made this p99 read
slow*. Three pieces:

* :class:`OpContext` and the charge seam — while an op is active
  (:func:`attributing`), the code that charges simulated time also
  names it, :func:`attribute` ``(component, tier, usec)``, so every
  charged microsecond lands in one bucket. Attribution never *adds*
  latency: runs with it enabled are bit-identical to runs without.
* :class:`LatencyAttribution` — the per-run aggregator: per op type and
  latency bucket it keeps the summed breakdown (bounded memory), retains
  a worst-K slow-op log with the full event list plus an LSM state
  snapshot, and keeps K exemplar ops via a seeded reservoir (keyed off
  the run seed through :func:`~repro.common.rng.make_rng`, never wall
  clock — sampling is deterministic).
* Band/diff helpers — :func:`band_breakdown` folds the bucket cells into
  percentile bands (<=p50 / p50-p90 / p90-p99 / >=p99) and
  :func:`diff_attribution` decomposes the delta between two runs into
  per-component contributions ("the p99 delta is 83% flash block
  reads"). Because every charged microsecond lands in exactly one
  bucket, the decomposition is exact: component deltas sum to the total.

Component names: ``cpu``, ``memtable``, ``rowcache``, ``filter`` /
``index`` / ``data`` (block fetches, tier ``dram`` on cache or resident
hits, else the device tier), ``wal``, ``tracker`` (PrismDB),
``compact_wait`` (the device queueing penalty behind background
compaction/migration backlog), ``migration_stall`` (Mutant's file-lock
stalls) and ``other`` for any residual.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.common.rng import make_rng
from repro.errors import ConfigError
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

#: Percentile bands reported by :func:`band_breakdown`, tail-last. Band
#: edges are rank fractions; a latency bucket straddling an edge is split
#: fractionally (its samples are exchangeable once aggregated).
BANDS = ("p50", "p50_p90", "p90_p99", "p99")
BAND_LABELS = {
    "p50": "<=p50",
    "p50_p90": "p50-p90",
    "p90_p99": "p90-p99",
    "p99": ">=p99",
}
_BAND_EDGES = (0.0, 0.50, 0.90, 0.99, 1.0)

#: Component charged with whatever part of an op's latency no layer
#: attributed explicitly (float association noise; ideally ~0).
RESIDUAL_KEY = "other/-"


class OpContext:
    """Latency breakdown of one in-flight operation.

    :meth:`add` is the only writer of ``parts`` and ``events``; the
    engine reaches it through :func:`attribute` while the op is active.
    ``scope`` labels events with the probe site (e.g. ``L3:f17``) so the
    slow-op log reads as a span tree.
    """

    __slots__ = ("op", "scope", "parts", "events", "probes")

    def __init__(self, op: str) -> None:
        self.op = op
        self.scope = ""
        #: ``"component/tier" -> usec`` accumulated charges.
        self.parts: dict[str, float] = {}
        #: ``(scope, component, tier, usec)`` in charge order.
        self.events: list[tuple[str, str, str, float]] = []
        #: Side counters (bloom probe outcomes), not latency.
        self.probes: dict[str, int] = {}

    def add(self, component: str, tier: str, usec: float) -> None:
        """Attribute ``usec`` of this op's latency to ``(component, tier)``."""
        key = component + "/" + tier
        parts = self.parts
        parts[key] = parts.get(key, 0.0) + usec
        self.events.append((self.scope, component, tier, usec))

    def note_probe(self, positive: bool, *, n_probes: int = 0) -> None:
        """Count a bloom probe outcome (no latency; the filter fetch is
        attributed separately as the ``filter`` component)."""
        probes = self.probes
        probes["bloom"] = probes.get("bloom", 0) + 1
        if not positive:
            probes["bloom_negative"] = probes.get("bloom_negative", 0) + 1
        if n_probes:
            probes["bloom_hashes"] = probes.get("bloom_hashes", 0) + n_probes


#: The op being attributed, or None; set only by :func:`attributing`. The
#: simulator runs one op at a time and fleet shards are separate
#: processes, so one slot per process is enough.
_active: OpContext | None = None


@contextmanager
def attributing(ctx: OpContext) -> Iterator[OpContext]:
    """Attribute every charge made inside the ``with`` block to ``ctx``."""
    global _active
    _active = ctx
    try:
        yield ctx
    finally:
        _active = None


def attribute(component: str, tier: str, usec: float) -> None:
    """Attribute ``usec`` just charged to ``(component, tier)`` of the active op."""
    ctx = _active
    if ctx is not None:
        ctx.add(component, tier, usec)


def note_probe(positive: bool, n_probes: int) -> None:
    """Count a bloom probe outcome on the active op."""
    ctx = _active
    if ctx is not None:
        ctx.note_probe(positive, n_probes=n_probes)


def set_scope(level_name: str = "", file_id: int = 0) -> None:
    """Label the active op's next events with the probe site ``L3:f17``;
    with no arguments, clear the label."""
    ctx = _active
    if ctx is not None:
        ctx.scope = f"{level_name}:f{file_id}" if level_name else ""


class _Cell:
    """Aggregated breakdown of every op that landed in one latency bucket."""

    __slots__ = ("count", "total_usec", "parts")

    def __init__(self) -> None:
        self.count = 0
        self.total_usec = 0.0
        self.parts: dict[str, float] = {}


class LatencyAttribution:
    """Bounded-memory aggregator over every measured op's :class:`OpContext`.

    Memory is O(op types x latency buckets x components) for the cells
    plus :attr:`SLOW_K` full entries and :attr:`RESERVOIR_K` exemplars —
    independent of operation count. The exemplar draws come from a
    seeded RNG, never wall clock, so two identical runs produce
    identical exports.
    """

    #: Version of the :meth:`to_dict` layout (nested inside the RunResult
    #: artifact, versioned independently of the artifact schema).
    SCHEMA = 1
    #: Slowest ops retained with their full event list and state snapshot.
    SLOW_K = 8
    #: Exemplar ops kept by the seeded reservoir.
    RESERVOIR_K = 4
    #: Latency bucket bounds, the registry histograms' own.
    BOUNDS = DEFAULT_LATENCY_BUCKETS

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed
        #: Optional zero-argument callable returning a JSON-safe LSM
        #: state snapshot, captured when an op enters the slow-op log.
        self.state_fn: Callable[[], dict] | None = None
        self._rng = make_rng(seed, "obs", "attribution")
        self._ops = 0
        self._cells: dict[str, list[_Cell | None]] = {}
        # Min-heap of (total_usec, seq, entry): the K slowest ops.
        self._slow: list[tuple[float, int, dict]] = []
        self._examples: list[dict] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def attributed(self, op: str, call: Callable) -> Callable:
        """Wrap an engine entry point so each call is attributed.

        ``call`` returns a result carrying ``latency_usec`` and runs with
        a fresh :class:`OpContext` active. The wrapper is transparent
        otherwise, so ``call`` may be any callable of the same arity.
        """
        observe = self.observe

        def attributed_call(*args):
            ctx = OpContext(op)
            with attributing(ctx):
                result = call(*args)
            observe(ctx, result.latency_usec)
            return result

        return attributed_call

    def observe(self, ctx: OpContext, total_usec: float) -> None:
        """Fold one finished op into the aggregate state.

        ``total_usec`` is the latency the engine reported; any gap
        between it and the sum of attributed parts is recorded under
        :data:`RESIDUAL_KEY` so parts always sum to the total exactly.
        """
        parts = ctx.parts
        residual = total_usec - sum(parts.values())
        if residual:
            parts[RESIDUAL_KEY] = parts.get(RESIDUAL_KEY, 0.0) + residual
        # The same rule as Histogram.observe: bucket i holds (b[i-1], b[i]].
        index = bisect_left(self.BOUNDS, total_usec)
        cells = self._cells.get(ctx.op)
        if cells is None:
            cells = self._cells[ctx.op] = [None] * (len(self.BOUNDS) + 1)
        cell = cells[index]
        if cell is None:
            cell = cells[index] = _Cell()
        cell.count += 1
        cell.total_usec += total_usec
        cell_parts = cell.parts
        for key, usec in parts.items():
            cell_parts[key] = cell_parts.get(key, 0.0) + usec

        seq = self._ops
        if len(self._slow) < self.SLOW_K or total_usec > self._slow[0][0]:
            entry = self._make_entry(ctx, total_usec, seq, full=True)
            heapq.heappush(self._slow, (total_usec, seq, entry))
            if len(self._slow) > self.SLOW_K:
                heapq.heappop(self._slow)
        if seq < self.RESERVOIR_K:
            self._examples.append(self._make_entry(ctx, total_usec, seq, full=False))
        else:
            # Algorithm R over the op stream, seeded RNG.
            slot = self._rng.randrange(seq + 1)
            if slot < self.RESERVOIR_K:
                self._examples[slot] = self._make_entry(ctx, total_usec, seq, full=False)
        self._ops = seq + 1

    def _make_entry(self, ctx: OpContext, total_usec: float, seq: int, *, full: bool) -> dict:
        entry: dict = {
            "op": ctx.op,
            "seq": seq,
            "total_usec": total_usec,
            "parts": {key: ctx.parts[key] for key in sorted(ctx.parts)},
        }
        if ctx.probes:
            entry["probes"] = {key: ctx.probes[key] for key in sorted(ctx.probes)}
        if full:
            entry["events"] = [list(event) for event in ctx.events]
            entry["state"] = self.state_fn() if self.state_fn is not None else {}
        return entry

    # ------------------------------------------------------------------
    # Export / import (bit-exact round trip through JSON)
    # ------------------------------------------------------------------
    @classmethod
    def _layout(cls, ops: int) -> dict:
        """The export's fixed fields: every op is attributed, and the
        two K and the bounds are the class's. The export still writes
        them, so its layout and bytes stay what saved artifacts hold."""
        return {
            "sample_every": 1,
            "slow_k": cls.SLOW_K,
            "reservoir_k": cls.RESERVOIR_K,
            "bounds": list(cls.BOUNDS),
            "ops_offered": ops,
            "ops_sampled": ops,
        }

    def to_dict(self) -> dict:
        """A JSON-safe export; :meth:`from_dict` rebuilds it bit-exactly."""
        ops: dict[str, dict] = {}
        for op in sorted(self._cells):
            buckets = []
            count = 0
            total = 0.0
            for index, cell in enumerate(self._cells[op]):
                if cell is None or cell.count == 0:
                    continue
                count += cell.count
                total += cell.total_usec
                buckets.append(
                    {
                        "index": index,
                        "count": cell.count,
                        "total_usec": cell.total_usec,
                        "parts": {key: cell.parts[key] for key in sorted(cell.parts)},
                    }
                )
            ops[op] = {"count": count, "total_usec": total, "buckets": buckets}
        slow = [entry for _, _, entry in sorted(self._slow, key=lambda t: (-t[0], t[1]))]
        return {
            "schema": self.SCHEMA,
            "seed": self.seed,
            **self._layout(self._ops),
            "ops": ops,
            "slow_ops": slow,
            "examples": list(self._examples),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyAttribution":
        """Rebuild aggregate state from :meth:`to_dict` output.

        The RNG stream is freshly seeded (continuing to record into a
        restored instance would not replay the original draws); restored
        instances are for inspection and re-export, which is bit-exact.
        Raises :class:`ConfigError` for an export recorded with a
        sampling rate, a K or bounds other than this build's.
        """
        schema = data.get("schema")
        if schema != cls.SCHEMA:
            raise ValueError(
                f"unsupported attribution schema {schema!r} "
                f"(this build reads schema {cls.SCHEMA})"
            )
        attr = cls(seed=data["seed"])
        attr._ops = data["ops_sampled"]
        for key, value in cls._layout(attr._ops).items():
            if data[key] != value:
                raise ConfigError(
                    f"attribution {key} {data[key]!r} differs from this "
                    f"build's {value!r}"
                )
        for op, info in data["ops"].items():
            cells: list[_Cell | None] = [None] * (len(cls.BOUNDS) + 1)
            for bucket in info["buckets"]:
                cell = _Cell()
                cell.count = bucket["count"]
                cell.total_usec = bucket["total_usec"]
                cell.parts = dict(bucket["parts"])
                cells[bucket["index"]] = cell
            attr._cells[op] = cells
        attr._slow = [
            (entry["total_usec"], entry["seq"], dict(entry))
            for entry in data["slow_ops"]
        ]
        heapq.heapify(attr._slow)
        attr._examples = [dict(entry) for entry in data["examples"]]
        return attr


# ----------------------------------------------------------------------
# Percentile-band views over the exported dict (artifact-friendly: these
# operate on `RunResult.attribution`, no aggregator reconstruction).
# ----------------------------------------------------------------------
def band_breakdown(data: dict, op: str) -> dict[str, dict]:
    """Fold one op type's bucket cells into percentile bands.

    Returns ``band -> {"ops", "total_usec", "usec_per_op", "parts",
    "parts_per_op"}`` for each band in :data:`BANDS`. A bucket whose rank
    range straddles a band edge contributes fractionally to both sides;
    bands therefore partition the population exactly and per-band parts
    still sum to the per-band total.
    """
    info = (data or {}).get("ops", {}).get(op)
    out = {
        band: {"ops": 0.0, "total_usec": 0.0, "usec_per_op": 0.0,
               "parts": {}, "parts_per_op": {}}
        for band in BANDS
    }
    if not info or not info["count"]:
        return out
    total_count = info["count"]
    edges = [edge * total_count for edge in _BAND_EDGES]
    cum = 0
    for bucket in info["buckets"]:
        count = bucket["count"]
        lo, hi = cum, cum + count  # this bucket holds ranks (lo, hi]
        cum = hi
        for band, lo_edge, hi_edge in zip(BANDS, edges[:-1], edges[1:]):
            overlap = min(hi, hi_edge) - max(lo, lo_edge)
            if overlap <= 0:
                continue
            weight = overlap / count
            slot = out[band]
            slot["ops"] += overlap
            slot["total_usec"] += weight * bucket["total_usec"]
            parts = slot["parts"]
            for key, usec in bucket["parts"].items():
                parts[key] = parts.get(key, 0.0) + weight * usec
    for slot in out.values():
        ops = slot["ops"]
        if ops > 0:
            slot["usec_per_op"] = slot["total_usec"] / ops
            slot["parts_per_op"] = {
                key: usec / ops for key, usec in slot["parts"].items()
            }
    return out


def attribution_table(data: dict, *, top: int = 0) -> tuple[list[str], list[list]]:
    """(headers, rows) of per-band component shares for every op type."""
    headers = ["op", "band", "ops", "us/op", "component/tier", "comp us/op", "share"]
    rows: list[list] = []
    for op in sorted((data or {}).get("ops", {})):
        bands = band_breakdown(data, op)
        for band in BANDS:
            slot = bands[band]
            if slot["ops"] <= 0:
                continue
            parts = sorted(
                slot["parts_per_op"].items(), key=lambda kv: (-abs(kv[1]), kv[0])
            )
            if top > 0:
                parts = parts[:top]
            first = True
            for key, usec in parts:
                share = usec / slot["usec_per_op"] if slot["usec_per_op"] else 0.0
                rows.append(
                    [
                        op if first else "",
                        BAND_LABELS[band] if first else "",
                        f"{slot['ops']:.1f}" if first else "",
                        f"{slot['usec_per_op']:.1f}" if first else "",
                        key,
                        f"{usec:.2f}",
                        f"{share:6.1%}",
                    ]
                )
                first = False
    return headers, rows


def diff_attribution(
    baseline: dict, candidate: dict, *, op: str = "read", band: str = "p99"
) -> dict:
    """Decompose the per-op latency delta of one band between two runs.

    Returns ``{"op", "band", "baseline_usec", "candidate_usec",
    "delta_usec", "explained_fraction", "contributors": [...]}`` where
    each contributor is ``{"key", "baseline_usec", "candidate_usec",
    "delta_usec", "share"}`` (share of the total delta, signed). The
    contributors' deltas sum to ``delta_usec`` up to float rounding, so
    ``explained_fraction`` is ~1.0 whenever both runs attributed their
    latency fully.
    """
    if band not in BANDS:
        raise ValueError(f"unknown band {band!r}; expected one of {BANDS}")
    slot_a = band_breakdown(baseline, op)[band]
    slot_b = band_breakdown(candidate, op)[band]
    parts_a = slot_a["parts_per_op"]
    parts_b = slot_b["parts_per_op"]
    delta_total = slot_b["usec_per_op"] - slot_a["usec_per_op"]
    contributors = []
    explained = 0.0
    for key in sorted(set(parts_a) | set(parts_b)):
        a = parts_a.get(key, 0.0)
        b = parts_b.get(key, 0.0)
        delta = b - a
        explained += delta
        contributors.append(
            {
                "key": key,
                "baseline_usec": a,
                "candidate_usec": b,
                "delta_usec": delta,
                "share": delta / delta_total if delta_total else 0.0,
            }
        )
    contributors.sort(key=lambda c: (-abs(c["delta_usec"]), c["key"]))
    return {
        "op": op,
        "band": band,
        "baseline_ops": slot_a["ops"],
        "candidate_ops": slot_b["ops"],
        "baseline_usec": slot_a["usec_per_op"],
        "candidate_usec": slot_b["usec_per_op"],
        "delta_usec": delta_total,
        "explained_fraction": explained / delta_total if delta_total else 1.0,
        "contributors": contributors,
    }
