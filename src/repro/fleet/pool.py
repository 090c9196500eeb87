"""The shared device pool: tiers as a fleet resource, not per-shard silos.

In the paper's single-node setup each PrismDB instance owns its devices.
A fleet deployment provisions flash as a *pool*: ``shards /
oversubscription`` devices' worth of each technology serve all shards,
so one shard's compaction storm steals drain bandwidth from its
neighbours and inflates their read tails.

The pool is an **analytic overlay**, deliberately not a live shared
object. Shards simulate fully independently (that independence is what
makes fleet results bit-identical for any ``--jobs`` value); the pool
then recomputes contention from the *merged* fleet timeline, which is
itself a pure function of the per-shard results:

1. Per technology (NVM / TLC / QLC), sum every shard's per-interval
   device write bytes — the fleet's write pressure on the pool.
2. Evolve a pool backlog: inflow minus drain at the pool's sustained
   write bandwidth (``per-device sustained bw * BACKGROUND_SHARE *
   shards / oversubscription``), clamped at zero — the same backlog
   model :class:`~repro.storage.device.Device` applies per instance.
3. Convert each interval's backlog to a queueing penalty with the
   function ``Device`` uses, :func:`~repro.storage.device.queue_penalty_usec`.
4. Weight each interval's penalty by the fleet's foreground-visible
   read bytes in that interval and report the weighted penalty
   distribution; the merge adds it comonotonically (percentile to
   percentile) onto the merged read/scan latency summaries.

The overlay is additive on top of the per-shard queueing penalties the
shards already simulated against their own devices — an upper-bound
style composition, documented as such in docs/FLEET.md. With
``oversubscription == 1.0`` the pool has one device per shard and the
overlay reflects only cross-shard phase alignment (everyone compacting
at once), which a dedicated-device fleet also experiences at the rack's
shared power/firmware limits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import LatencySummary
from repro.errors import ConfigError
from repro.storage.device import (
    BACKGROUND_SHARE,
    INTERFERENCE_FACTOR,
    MAX_PENALTY_USEC,
    SPECS_BY_NAME,
    queue_penalty_usec,
)


@dataclass(frozen=True)
class PoolParams:
    """Pool sizing; the interference model is ``Device``'s own."""

    #: Shards per pooled device: 2.0 means two shards share one device's
    #: worth of each flash technology. 1.0 = dedicated devices.
    oversubscription: float = 2.0

    def __post_init__(self) -> None:
        if self.oversubscription < 1.0:
            raise ConfigError(
                f"oversubscription must be >= 1.0: {self.oversubscription}"
            )


def _weighted_percentile(
    pairs: list[tuple[float, float]], pct: float
) -> float:
    """Nearest-rank percentile of a (value, weight) population."""
    if not pairs:
        return 0.0
    ordered = sorted(pairs)
    total = sum(weight for _, weight in ordered)
    if total <= 0:
        return 0.0
    target = pct / 100.0 * total
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= target:
            return value
    return ordered[-1][0]


class DevicePool:
    """Fleet-level tier contention computed from the merged timeline."""

    def __init__(self, num_shards: int, params: PoolParams | None = None) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1: {num_shards}")
        self.num_shards = num_shards
        self.params = params or PoolParams()

    # ------------------------------------------------------------------
    # Overlay computation
    # ------------------------------------------------------------------
    def contention(self, merged_timeline: dict) -> dict:
        """Per-technology pool contention from a merged fleet timeline.

        Returns a JSON-safe dict: per-tech totals plus the fleet-wide
        read-weighted penalty distribution (``penalty`` block) the merge
        adds onto read/scan summaries. Empty timeline -> zero overlay.
        """
        params = self.params
        empty = {
            "schema": 1,
            "shards": self.num_shards,
            "params": {
                "oversubscription": params.oversubscription,
                "background_share": BACKGROUND_SHARE,
                "interference_factor": INTERFERENCE_FACTOR,
                "max_penalty_usec": MAX_PENALTY_USEC,
            },
            "tiers": {},
            "penalty": {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0},
        }
        series = merged_timeline.get("series") if merged_timeline else None
        if not series:
            return empty
        interval_sec = merged_timeline["interval_ms"] / 1_000.0
        rows = len(merged_timeline["t_ms"])

        # Group the per-tier byte series by technology ("nvm-L0-L2" -> NVM).
        write_by_tech: dict[str, list[float]] = {}
        read_by_tech: dict[str, list[float]] = {}
        for name, values in series.items():
            for prefix, sink in (
                ("device.write_bytes{tier=", write_by_tech),
                ("device.read_bytes{tier=", read_by_tech),
            ):
                if name.startswith(prefix):
                    tier = name[len(prefix) : -1]
                    tech = tier.split("-")[0].upper()
                    if tech == "DRAM":
                        continue  # DRAM is per-shard memory, never pooled
                    acc = sink.setdefault(tech, [0.0] * rows)
                    for k, v in enumerate(values):
                        acc[k] += v

        tiers: dict[str, dict] = {}
        penalty_pop: list[tuple[float, float]] = []
        weighted_sum = 0.0
        weight_total = 0.0
        for tech in sorted(write_by_tech):
            spec = SPECS_BY_NAME.get(tech)
            if spec is None:
                continue
            devices = self.num_shards / params.oversubscription
            pool_bw = spec.sustained_write_bandwidth_bps * devices
            drain_per_interval = pool_bw * BACKGROUND_SHARE * interval_sec
            writes = write_by_tech[tech]
            reads = read_by_tech.get(tech, [0.0] * rows)
            backlog = 0.0
            peak_backlog = 0.0
            tech_weighted = 0.0
            tech_weight = 0.0
            tech_max = 0.0
            for k in range(rows):
                backlog = max(0.0, backlog + writes[k] - drain_per_interval)
                peak_backlog = max(peak_backlog, backlog)
                penalty = queue_penalty_usec(backlog, pool_bw)
                weight = reads[k] if k < len(reads) else 0.0
                penalty_pop.append((penalty, weight))
                tech_weighted += penalty * weight
                tech_weight += weight
                weighted_sum += penalty * weight
                weight_total += weight
                if weight > 0.0:
                    tech_max = max(tech_max, penalty)
            tiers[tech] = {
                "pool_devices": devices,
                "pool_sustained_bw_bps": pool_bw,
                "write_bytes": sum(writes),
                "read_bytes": sum(reads),
                "peak_backlog_bytes": peak_backlog,
                "mean_penalty_usec": (
                    tech_weighted / tech_weight if tech_weight else 0.0
                ),
                "max_penalty_usec": tech_max,
            }
        out = dict(empty)
        out["tiers"] = tiers
        out["penalty"] = {
            "mean": weighted_sum / weight_total if weight_total else 0.0,
            "p50": _weighted_percentile(penalty_pop, 50.0),
            "p95": _weighted_percentile(penalty_pop, 95.0),
            "p99": _weighted_percentile(penalty_pop, 99.0),
            "max": max(
                (value for value, weight in penalty_pop if weight > 0.0),
                default=0.0,
            ),
        }
        return out

    @staticmethod
    def apply_penalty(summary: LatencySummary, penalty: dict) -> LatencySummary:
        """Add the pool penalty distribution onto a latency summary.

        Comonotonic addition — percentile onto percentile — the standard
        upper-bound composition for two positively associated latencies
        (slow intervals are slow for both reasons at once). Empty
        summaries stay empty.
        """
        if summary.count == 0:
            return summary
        return LatencySummary(
            count=summary.count,
            mean=summary.mean + penalty["mean"],
            p50=summary.p50 + penalty["p50"],
            p95=summary.p95 + penalty["p95"],
            p99=summary.p99 + penalty["p99"],
            maximum=summary.maximum + penalty["max"],
        )
