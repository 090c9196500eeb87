"""Engine configuration.

Defaults are scaled-down but proportionate to the paper's setup: the
level size multiplier, L0 trigger, block size, and bits-per-key match
RocksDB's; absolute sizes are shrunk so simulations of 10⁴–10⁶ keys run
in seconds (see DESIGN.md, "Reproduction mode").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import KIB
from repro.errors import ConfigError

#: Compaction *shape* axis (docs/COMPACTION.md): a shape is the set of
#: levels, of ``num_levels``, that may stack more than one sorted run;
#: the executor plans every job from that set alone. L0, where every
#: flush lands as its own run, is in every shape.
COMPACTION_SHAPES = {
    "leveling": lambda num_levels: range(1),
    "tiering": lambda num_levels: range(num_levels),
    "lazy-leveling": lambda num_levels: range(num_levels - 1),
}


@dataclass
class DBOptions:
    """Tuning knobs for :class:`~repro.lsm.db.LsmDB` and its components."""

    #: Memtable flush threshold.
    memtable_bytes: int = 64 * KIB
    #: Data block target size (the caching granularity, §3.3).
    block_bytes: int = 4 * KIB
    #: SSTable target size.
    target_file_bytes: int = 64 * KIB
    #: Number of on-disk levels (L0..L{n-1}); the paper uses 5.
    num_levels: int = 5
    #: Sorted-run count that fires a compaction of a run-stacked level:
    #: L0 (one run per flush) in every shape, and every level tiering or
    #: lazy-leveling stacks. RocksDB's universal compaction reads this
    #: same option as its sorted-run trigger.
    l0_compaction_trigger: int = 4
    #: Target size of L1; deeper levels multiply by the level multiplier.
    level1_target_bytes: int = 256 * KIB
    #: Ratio between consecutive level targets (RocksDB default 10; the
    #: paper's Fig. 1 example uses 8).
    level_size_multiplier: int = 8
    #: Bloom filter density (RocksDB default).
    bits_per_key: int = 10
    #: DRAM block cache capacity; 0 disables caching (Fig. 13).
    block_cache_bytes: int = 512 * KIB
    #: Optional object-granularity row cache (RocksDB's row_cache); 0
    #: disables it. Used by the §3.3 caching-granularity extension.
    row_cache_bytes: int = 0
    #: Group-commit factor: only every N-th WAL append pays the device's
    #: program latency; the others ride in the same batch and pay only
    #: transfer cost. 1 (the default) syncs every append — the paper's
    #: single-instance configuration. The fleet router raises this to
    #: model router-side batched WAL (see docs/FLEET.md).
    wal_sync_every: int = 1
    #: Fraction of each level's target reserved for pinned (hot) data.
    #: Hot-scored file bytes up to this reserve are excluded from the
    #: level's compaction score, so retaining popular keys does not
    #: re-trigger compaction of the level that holds them — the
    #: level-sizing accommodation that keeps pinning from churning
    #: (§4.3's "placer must take level sizing into account").
    pin_reserve_fraction: float = 0.5
    #: RNG seed of the harness's latency-attribution sampling.
    seed: int = 0
    #: Compaction shape by name: "leveling" (one sorted run per level,
    #: the default and the paper's configuration), "tiering" (a stack of
    #: sorted runs per level; a full level merges into one new run one
    #: level down), or "lazy-leveling" (tiering in the middle levels,
    #: leveling at the last — Dostoevsky's hybrid).
    compaction_shape: str = "leveling"

    def __post_init__(self) -> None:
        if self.memtable_bytes <= 0:
            raise ConfigError("memtable_bytes must be positive")
        if self.block_bytes <= 0 or self.block_bytes > self.target_file_bytes:
            raise ConfigError("block_bytes must be in (0, target_file_bytes]")
        if self.num_levels < 2:
            raise ConfigError("num_levels must be at least 2")
        if self.l0_compaction_trigger < 2:
            raise ConfigError("l0_compaction_trigger must be >= 2")
        if self.level_size_multiplier < 2:
            raise ConfigError("level_size_multiplier must be >= 2")
        if self.level1_target_bytes < self.target_file_bytes:
            raise ConfigError("level1_target_bytes must hold at least one file")
        if self.compaction_shape not in COMPACTION_SHAPES:
            raise ConfigError(
                f"unknown compaction_shape {self.compaction_shape!r}; "
                f"choose from {tuple(COMPACTION_SHAPES)}"
            )
        if self.bits_per_key < 1:
            raise ConfigError(f"bits_per_key must be >= 1: {self.bits_per_key}")
        if self.block_cache_bytes < 0:
            raise ConfigError(
                f"block_cache_bytes must be non-negative: {self.block_cache_bytes}"
            )
        if self.row_cache_bytes < 0:
            raise ConfigError(f"row_cache_bytes must be non-negative: {self.row_cache_bytes}")
        if not 0.0 <= self.pin_reserve_fraction <= 1.0:
            raise ConfigError(
                f"pin_reserve_fraction must be in [0, 1]: {self.pin_reserve_fraction}"
            )
        if self.wal_sync_every < 1:
            raise ConfigError("wal_sync_every must be >= 1")

    def level_target_bytes(self, level: int) -> int:
        """Size target of ``level``; L0's target is the trigger in bytes."""
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level out of range: {level}")
        if level == 0:
            return self.l0_compaction_trigger * self.memtable_bytes
        return self.level1_target_bytes * self.level_size_multiplier ** (level - 1)


def options_for_db_size(
    db_bytes: int,
    *,
    num_levels: int = 5,
    level_size_multiplier: int = 10,
    **overrides,
) -> DBOptions:
    """Build options whose bottom level holds the bulk of ``db_bytes``.

    Mirrors RocksDB's dynamic level sizing: the bottom level's target is
    the database size and each shallower level divides by the multiplier,
    so ~90 % of the data lives at the bottom — matching the paper's
    configuration where the last level "contains the key space of the
    entire database" and the NVM:TLC:QLC split is roughly 1:9:90.
    """
    if db_bytes <= 0:
        raise ConfigError("db_bytes must be positive")
    level1 = int(db_bytes / level_size_multiplier ** (num_levels - 2))
    defaults = {
        "memtable_bytes": 16 * KIB,
        "target_file_bytes": 16 * KIB,
    }
    defaults.update(overrides)
    file_bytes = defaults["target_file_bytes"]
    level1 = max(level1, file_bytes)
    return DBOptions(
        num_levels=num_levels,
        level_size_multiplier=level_size_multiplier,
        level1_target_bytes=level1,
        **defaults,
    )
