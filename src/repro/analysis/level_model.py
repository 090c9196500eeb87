"""Analytic leveled-LSM sizing model.

§4.3 of the paper leans on the classical result that write amplification
is minimized when the ratio between consecutive level sizes is constant —
that is why the placer must respect level sizing rather than pile hot
data arbitrarily high. This module makes that math executable: steady-
state write amplification as a function of the multiplier and level
count, and how many levels a data size needs.

The standard model: each user byte is written once to the WAL, once per
flush, and then once per level it descends through; a leveled merge into
a level ``k`` times larger rewrites ~``k+1`` bytes per byte pushed down,
so WA ≈ 2 + Σ_levels (k + 1) in the worst case and ≈ 2 + levels * (k+1)/2
on average (output levels are half-full on average).
"""

from __future__ import annotations

from repro.errors import ConfigError


def levels_required(db_bytes: int, level1_bytes: int, multiplier: int) -> int:
    """How many levels (L1..Ln) a database of ``db_bytes`` needs."""
    if db_bytes <= 0 or level1_bytes <= 0:
        raise ConfigError("sizes must be positive")
    if multiplier < 2:
        raise ConfigError("multiplier must be >= 2")
    levels = 1
    capacity = level1_bytes
    while capacity < db_bytes:
        levels += 1
        capacity += level1_bytes * multiplier ** (levels - 1)
    return levels


def write_amplification_estimate(
    levels: int,
    multiplier: int,
    *,
    wal: bool = True,
    merge_fullness: float = 0.5,
) -> float:
    """Steady-state WA of a leveled LSM.

    ``merge_fullness`` is the expected fill of the overlap a pushed-down
    file merges with (0.5 = levels half full on average; 1.0 = the
    classical worst case).
    """
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    if multiplier < 2:
        raise ConfigError("multiplier must be >= 2")
    if not 0.0 <= merge_fullness <= 1.0:
        raise ConfigError("merge_fullness must be in [0, 1]")
    base = (1.0 if wal else 0.0) + 1.0  # WAL + flush
    per_level = 1.0 + multiplier * merge_fullness
    return base + levels * per_level
