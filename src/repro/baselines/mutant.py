"""The Mutant baseline (Yoon et al., SoCC'18), as configured in §6.

Mutant is a storage layer under an unmodified LSM: it tracks each SST
file's *temperature* (exponentially cooled access frequency, cooling
coefficient alpha = 0.999) and, every optimization epoch (1 s), re-ranks
files and migrates them so the hottest files sit on the fastest devices,
subject to device capacities. Placement is whole-file — no hot-cold
separation *within* a file — and each migration is real I/O that locks
the file while it moves, which is why reads stall during migrations (the
effect the paper blames for Mutant's latency spikes). The paper's
"migration resistance" optimization is deliberately not implemented,
matching the evaluation setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import seconds
from repro.errors import CapacityError, ConfigError
from repro.lsm.db import LsmDB
from repro.lsm.layout import StorageLayout
from repro.lsm.options import DBOptions
from repro.storage.tier import StorageTier


#: Per-epoch multiplicative temperature decay (the paper's alpha).
COOLING_ALPHA = 0.999


@dataclass
class MutantOptions:
    """Mutant knobs (§6 baseline configuration)."""

    #: Optimization epoch length in simulated microseconds (paper: 1 s).
    epoch_usec: float = seconds(1)
    #: Mutant's "migration resistance" optimization (its paper's knob the
    #: PrismDB evaluation deliberately left off): a file only migrates if
    #: its temperature differs from the tier-boundary temperature by this
    #: relative margin, trading placement precision for fewer migrations.
    #: 0.0 disables resistance (the PrismDB paper's configuration).
    migration_resistance: float = 0.0

    def __post_init__(self) -> None:
        if self.epoch_usec <= 0:
            raise ConfigError("epoch_usec must be positive")
        if self.migration_resistance < 0.0:
            raise ConfigError("migration_resistance must be non-negative")


@dataclass
class MutantStats:
    """Optimizer activity counters."""

    epochs: int = 0
    migrations: int = 0
    migration_bytes: int = 0
    migrations_skipped_capacity: int = 0
    migrations_resisted: int = 0


class MutantDB(LsmDB):
    """RocksDB engine + Mutant's temperature-driven file migration."""

    def __init__(
        self,
        layout: StorageLayout,
        options: DBOptions | None = None,
        mutant_options: MutantOptions | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("name", "mutant")
        super().__init__(layout, options, **kwargs)
        self.mutant_options = mutant_options or MutantOptions()
        self.mutant_stats = MutantStats()
        # file_id -> cooled temperature.
        self._temperatures: dict[int, float] = {}
        self._counts_at_last_epoch: dict[int, int] = {}
        self._last_epoch_usec = self.clock.now
        # Fast-to-slow tier order for greedy placement.
        self._tiers_fast_first: list[StorageTier] = sorted(
            layout.tiers, key=lambda tier: tier.spec.read_latency_usec
        )

    @classmethod
    def create(
        cls,
        layout_code: str = "NNNTQ",
        options: DBOptions | None = None,
        mutant_options: MutantOptions | None = None,
        **kwargs,
    ) -> "MutantDB":
        from repro.common.clock import SimClock
        from repro.lsm.layout import build_layout

        options = options or DBOptions()
        clock = kwargs.pop("clock", None) or SimClock()
        layout = build_layout(layout_code, options, clock)
        return cls(layout, options, mutant_options, clock=clock, **kwargs)

    def _fresh_instance(self) -> "MutantDB":
        """Restart: temperatures are volatile and start cold."""
        return type(self)(
            self.layout,
            self.options,
            self.mutant_options,
            clock=self.clock,
            backend=self.backend,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Epoch scheduling: piggybacked on client operations, since the
    # simulation has no free-running threads.
    # ------------------------------------------------------------------
    def _maybe_run_epoch(self) -> None:
        if self.clock.now - self._last_epoch_usec >= self.mutant_options.epoch_usec:
            self._last_epoch_usec = self.clock.now
            self.run_optimizer_epoch()

    def _with_epoch_check(self, lane):
        """``lane`` with the per-op epoch check prepended."""
        maybe_epoch = self._maybe_run_epoch

        def checked(*args):
            maybe_epoch()
            return lane(*args)

        return checked

    def read_lane(self):
        """Base read lane behind the epoch check."""
        return self._with_epoch_check(self._build_read_lane())

    def write_lane(self):
        """Base write lane behind the epoch check."""
        return self._with_epoch_check(self._build_write_lane())

    # ------------------------------------------------------------------
    # The optimizer
    # ------------------------------------------------------------------
    def _cool_and_update_temperatures(self) -> None:
        """temp = alpha * temp + accesses-since-last-epoch, per live file."""
        alpha = COOLING_ALPHA
        live_ids = {table.file_id for _, table in self.manifest.all_files()}
        for file_id in list(self._temperatures):
            if file_id not in live_ids:
                del self._temperatures[file_id]
                self._counts_at_last_epoch.pop(file_id, None)
        for file_id in live_ids:
            total = self.file_read_counts.get(file_id, 0)
            delta = total - self._counts_at_last_epoch.get(file_id, 0)
            self._counts_at_last_epoch[file_id] = total
            self._temperatures[file_id] = alpha * self._temperatures.get(file_id, 0.0) + delta

    def temperature(self, file_id: int) -> float:
        return self._temperatures.get(file_id, 0.0)

    def run_optimizer_epoch(self) -> int:
        """Re-rank files by temperature and migrate; returns migrations."""
        self.mutant_stats.epochs += 1
        self._cool_and_update_temperatures()
        tables = [table for _, table in self.manifest.all_files()]
        tables.sort(key=lambda t: self._temperatures.get(t.file_id, 0.0), reverse=True)

        # Greedy assignment: hottest files onto the fastest tier until
        # its nominal capacity is spoken for, then the next tier, etc.
        # Budgets use nominal (level-target) sizes so Mutant gets the
        # same storage the leveled layouts use, not the compaction
        # headroom on top of it.
        budgets = {tier.name: tier.nominal_bytes for tier in self._tiers_fast_first}
        assignment: dict[int, StorageTier] = {}
        boundary_temp: dict[str, float] = {}
        for table in tables:
            placed = False
            for tier in self._tiers_fast_first:
                if budgets[tier.name] >= table.size_bytes:
                    budgets[tier.name] -= table.size_bytes
                    assignment[table.file_id] = tier
                    # The coldest file assigned to a tier defines its
                    # boundary temperature (tables arrive hottest-first).
                    boundary_temp[tier.name] = self._temperatures.get(table.file_id, 0.0)
                    placed = True
                    break
            if not placed:
                assignment[table.file_id] = self._tiers_fast_first[-1]

        migrations = 0
        resistance = self.mutant_options.migration_resistance
        for table in tables:
            target = assignment[table.file_id]
            if table.tier is target:
                continue
            if resistance > 0.0:
                # Hysteresis: skip files whose temperature sits within
                # the resistance band of the target tier's boundary.
                temp = self._temperatures.get(table.file_id, 0.0)
                boundary = boundary_temp.get(target.name, 0.0)
                if abs(temp - boundary) <= resistance * max(boundary, 1.0):
                    self.mutant_stats.migrations_resisted += 1
                    continue
            try:
                self.backend.migrate_file(table.file, target)
            except CapacityError:
                self.mutant_stats.migrations_skipped_capacity += 1
                continue
            migrations += 1
            self.mutant_stats.migrations += 1
            self.mutant_stats.migration_bytes += table.size_bytes
        return migrations
