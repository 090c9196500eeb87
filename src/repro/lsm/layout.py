"""Level-to-tier storage layouts.

A layout maps each LSM level to a storage tier, using the paper's
five-letter configuration strings: ``"NNNTQ"`` places L0-L2 on one NVM
tier, L3 on TLC, and L4 on QLC (the paper's default heterogeneous
configuration, Fig. 2b); ``"QQQQQ"`` is homogeneous QLC, and so on.
Consecutive levels with the same technology share one physical tier (and
therefore one device queue), as they would share one SSD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.errors import ConfigError
from repro.lsm.options import DBOptions
from repro.storage.device import SPECS_BY_CODE
from repro.storage.tier import StorageTier


@dataclass
class StorageLayout:
    """Resolved layout: one tier per run of identical level codes."""

    code: str
    tiers: list[StorageTier]
    level_to_tier: list[StorageTier]
    wal_tier: StorageTier

    def tier_for_level(self, level: int) -> StorageTier:
        if not 0 <= level < len(self.level_to_tier):
            raise ValueError(f"level out of range: {level}")
        return self.level_to_tier[level]

    @property
    def num_levels(self) -> int:
        return len(self.level_to_tier)

    def total_cost_dollars(self) -> float:
        return sum(tier.device.cost_dollars() for tier in self.tiers)

    def describe(self) -> str:
        parts = []
        for index, tier in enumerate(self.level_to_tier):
            parts.append(f"L{index}={tier.spec.name}")
        return f"{self.code} ({', '.join(parts)})"


#: A tier's capacity over the sum of its levels' targets: room for
#: compaction transients and level overshoot.
CAPACITY_HEADROOM = 4.0


def build_layout(code: str, options: DBOptions, clock: SimClock) -> StorageLayout:
    """Create tiers for a configuration string like ``"NNNTQ"``.

    Each maximal run of identical codes becomes one tier whose capacity
    is the sum of its levels' targets times ``CAPACITY_HEADROOM``. The
    WAL lives on the tier hosting L0, as it does on the paper's testbed
    where the fastest device holds the log.
    """
    code = code.upper()
    if len(code) != options.num_levels:
        raise ConfigError(
            f"layout code {code!r} has {len(code)} levels but options "
            f"specify {options.num_levels}"
        )
    for letter in code:
        if letter not in SPECS_BY_CODE:
            raise ConfigError(f"unknown device code {letter!r} in {code!r}")

    tiers: list[StorageTier] = []
    level_to_tier: list[StorageTier] = []
    run_start = 0
    for level in range(len(code) + 1):
        at_end = level == len(code)
        if at_end or (level > 0 and code[level] != code[run_start]):
            letter = code[run_start]
            spec = SPECS_BY_CODE[letter]
            capacity = sum(
                options.level_target_bytes(lv) for lv in range(run_start, level)
            )
            tier = StorageTier(
                name=f"{spec.name.lower()}-L{run_start}" + (f"-L{level - 1}" if level - 1 > run_start else ""),
                spec=spec,
                capacity_bytes=max(1, int(capacity * CAPACITY_HEADROOM)),
                clock=clock,
                nominal_bytes=max(1, int(capacity)),
            )
            tiers.append(tier)
            for _ in range(run_start, level):
                level_to_tier.append(tier)
            run_start = level
    return StorageLayout(code=code, tiers=tiers, level_to_tier=level_to_tier, wal_tier=level_to_tier[0])
