"""The Fig. 4 / Table 3 analytic cost-vs-latency model.

The paper simulates, for every assignment of the five LSM levels to the
three storage technologies (3⁵ = 243 configurations), the average storage
read latency and the storage cost under a 3-year minimum device lifetime.
Reads and writes per level follow a RocksDB-production-like profile for a
223 GB database; technologies whose endurance cannot absorb a level's
write rate for 3 years are provisioned with spare capacity (the
enterprise-SSD over-provisioning rule), raising their cost.

This module reproduces that enumeration: :func:`enumerate_configs` yields
one :class:`ConfigEvaluation` per five-letter code, and
:func:`pareto_frontier` extracts the efficient set that Fig. 4 highlights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.units import GIB
from repro.errors import ConfigError
from repro.storage.device import SPECS_BY_CODE, DeviceSpec
from repro.storage.endurance import DEFAULT_LIFETIME_SECONDS, provision_capacity

#: Database size used throughout the paper's simulation (§3.2, Table 3).
PAPER_DB_BYTES = 223 * GIB


@dataclass(frozen=True)
class LevelProfile:
    """Workload seen by one LSM level in the analytic model."""

    level: int
    size_bytes: int
    read_fraction: float
    write_bytes_per_sec: float


def default_level_profiles(
    db_bytes: int = PAPER_DB_BYTES,
    *,
    num_levels: int = 5,
    size_multiplier: int = 8,
    read_fractions: tuple[float, ...] | None = None,
    write_shares: tuple[float, ...] | None = None,
    total_write_rate_bps: float = 256 * 1024,
) -> list[LevelProfile]:
    """A RocksDB-production-like per-level profile.

    Level sizes follow dynamic leveling (bottom level holds the bulk;
    each shallower level divides by the multiplier). Read fractions
    default to the storage-level part of the paper's Table 2 (point
    reads with cache disabled, memtable share excluded and renormalized);
    write shares default to the compaction-flow split our engine
    measures, which matches the usual leveled-LSM picture of most bytes
    landing in the two bottom levels.
    """
    if read_fractions is None:
        # Table 2: L0 3%, L1 2%, L2 5%, L3 16%, L4 49% -> renormalized.
        raw = (0.03, 0.02, 0.05, 0.16, 0.49)
        total = sum(raw)
        read_fractions = tuple(value / total for value in raw)
    if write_shares is None:
        write_shares = (0.14, 0.14, 0.09, 0.28, 0.35)
    if len(read_fractions) != num_levels or len(write_shares) != num_levels:
        raise ConfigError("profile tuples must have one entry per level")

    sizes: list[int] = []
    remaining = db_bytes
    for level in range(num_levels - 1, -1, -1):
        if level == num_levels - 1:
            size = int(db_bytes * 0.9)
        else:
            size = max(1, sizes[0] // size_multiplier)
        sizes.insert(0, size)
        remaining -= size
    return [
        LevelProfile(
            level=level,
            size_bytes=sizes[level],
            read_fraction=read_fractions[level],
            write_bytes_per_sec=total_write_rate_bps * write_shares[level],
        )
        for level in range(num_levels)
    ]


@dataclass(frozen=True)
class ConfigEvaluation:
    """Outcome of evaluating one five-letter configuration."""

    code: str
    avg_read_latency_usec: float
    cost_dollars: float
    cost_cents_per_gb: float
    provisioned_bytes_by_tech: dict[str, int]

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.code)) == 1


def evaluate_config(
    code: str,
    profiles: list[LevelProfile],
    *,
    lifetime_seconds: float = DEFAULT_LIFETIME_SECONDS,
) -> ConfigEvaluation:
    """Latency and cost of assigning ``code[i]`` to level i."""
    code = code.upper()
    if len(code) != len(profiles):
        raise ConfigError(f"code {code!r} does not match {len(profiles)} levels")
    specs: list[DeviceSpec] = []
    for letter in code:
        if letter not in SPECS_BY_CODE:
            raise ConfigError(f"unknown device code {letter!r}")
        specs.append(SPECS_BY_CODE[letter])

    avg_latency = sum(
        profile.read_fraction * spec.read_latency_usec
        for profile, spec in zip(profiles, specs)
    )

    # Aggregate each technology's data volume and write rate, then
    # provision it for the lifetime.
    data_by_tech: dict[str, int] = {}
    writes_by_tech: dict[str, float] = {}
    for profile, spec in zip(profiles, specs):
        data_by_tech[spec.name] = data_by_tech.get(spec.name, 0) + profile.size_bytes
        writes_by_tech[spec.name] = (
            writes_by_tech.get(spec.name, 0.0) + profile.write_bytes_per_sec
        )
    cost = 0.0
    provisioned: dict[str, int] = {}
    for name, data_bytes in data_by_tech.items():
        spec = next(s for s in specs if s.name == name)
        result = provision_capacity(
            spec, data_bytes, writes_by_tech[name], lifetime_seconds=lifetime_seconds
        )
        cost += result.cost_dollars
        provisioned[name] = result.provisioned_bytes

    db_bytes = sum(profile.size_bytes for profile in profiles)
    cents_per_gb = cost / (db_bytes / GIB) * 100.0
    return ConfigEvaluation(
        code=code,
        avg_read_latency_usec=avg_latency,
        cost_dollars=cost,
        cost_cents_per_gb=cents_per_gb,
        provisioned_bytes_by_tech=provisioned,
    )


def enumerate_configs(
    profiles: list[LevelProfile] | None = None,
    *,
    letters: str = "NTQ",
    lifetime_seconds: float = DEFAULT_LIFETIME_SECONDS,
) -> list[ConfigEvaluation]:
    """Evaluate every assignment of ``letters`` to the levels (Fig. 4)."""
    profiles = profiles or default_level_profiles()
    evaluations = []
    for combo in itertools.product(letters, repeat=len(profiles)):
        evaluations.append(
            evaluate_config("".join(combo), profiles, lifetime_seconds=lifetime_seconds)
        )
    return evaluations


def pareto_frontier(evaluations: list[ConfigEvaluation]) -> list[ConfigEvaluation]:
    """Configs not dominated in (latency, cost), sorted by latency."""
    frontier = []
    for candidate in evaluations:
        dominated = any(
            other.avg_read_latency_usec <= candidate.avg_read_latency_usec
            and other.cost_dollars <= candidate.cost_dollars
            and (
                other.avg_read_latency_usec < candidate.avg_read_latency_usec
                or other.cost_dollars < candidate.cost_dollars
            )
            for other in evaluations
        )
        if not dominated:
            frontier.append(candidate)
    return sorted(frontier, key=lambda e: e.avg_read_latency_usec)


#: The four configurations Table 3 prices out.
TABLE3_CODES = ("QQQQQ", "NNNTQ", "TTTTT", "NNNNN")


def table3_costs(
    profiles: list[LevelProfile] | None = None,
    *,
    lifetime_seconds: float = DEFAULT_LIFETIME_SECONDS,
) -> dict[str, float]:
    """Storage cost (dollars) of the Table 3 configurations."""
    profiles = profiles or default_level_profiles()
    return {
        code: evaluate_config(code, profiles, lifetime_seconds=lifetime_seconds).cost_dollars
        for code in TABLE3_CODES
    }
