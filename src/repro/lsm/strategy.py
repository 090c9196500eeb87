"""Compaction strategies: the shape axis of the design space.

Sarkar et al. ("Compactionary", arXiv:2202.04522) decompose LSM
compaction into orthogonal policy choices; this module implements the
one that the executor in :mod:`repro.lsm.compaction` does not already
expose as a seam, the **shape** (eagerness): how runs are arranged per
level and what one compaction job merges. :class:`LevelingStrategy`
keeps one sorted run per level and merges one picked file down (the
paper's configuration). :class:`TieringStrategy` stacks sorted runs per
level and merges a whole level into one new run one level down.
:class:`LazyLevelingStrategy` tiers the middle levels but levels the
last one (Dostoevsky's hybrid — tiering's write cost for most data,
leveling's read cost where most data lives).

Every shape fires on the same rule (RocksDB's): L0 by file count, a
leveled level by bytes against its target, a run-stacked level by its
sorted-run count against ``tiering_run_trigger``.

*Picking* stays in :mod:`repro.lsm.compaction`
(:class:`~repro.lsm.compaction.CompactionPicker`, injected into the DB)
because only partial — i.e. leveled — compactions pick files; tiered
jobs always merge whole levels. The §4.4 consistency rule forces this:
on a run-stacked level a partial merge could move a key's newest
version below an older version left behind in a sibling run, so tiered
jobs take *every* run of the level, which also makes the rule's "newest
surviving version only" contract trivially true for the router.

``make_strategy`` builds a shape from ``DBOptions.compaction_shape``;
see docs/COMPACTION.md for the handbook and a worked "add a policy"
example.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import CompactionError, ConfigError
from repro.lsm.compaction import CompactionJob
from repro.lsm.options import DBOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lsm.compaction import CompactionExecutor


def _level_score(executor: CompactionExecutor, level: int) -> float:
    """Urgency of compacting L0 or a *leveled* level; >= 1.0 fires.

    L0 counts files against ``l0_compaction_trigger``; deeper levels
    weigh bytes against the level target. Hot (positively-scored) bytes
    are discounted up to the pin reserve: retained popular data occupies
    the level without re-triggering compaction of it (§4.3's
    level-sizing accommodation).
    """
    manifest, options = executor.manifest, executor.options
    if level == 0:
        return manifest.file_count(0) / options.l0_compaction_trigger
    target = options.level_target_bytes(level)
    reserve = int(target * options.pin_reserve_fraction)
    discounted = min(manifest.hot_bytes(level), reserve)
    return (manifest.level_bytes(level) - discounted) / target


def _run_stack_score(executor: CompactionExecutor, level: int) -> float:
    """Urgency of compacting a *run-stacked* level: the classic tiering
    rule, firing when the stack reaches ``tiering_run_trigger`` runs."""
    return executor.manifest.run_count(level) / executor.options.tiering_run_trigger


class CompactionStrategy(abc.ABC):
    """The shape axis: run arrangement per level and job planning."""

    name: str = "?"

    @abc.abstractmethod
    def run_stacked_levels(self, options: DBOptions) -> tuple[int, ...]:
        """Which levels hold run stacks (passed to :class:`LevelManifest`)."""

    @abc.abstractmethod
    def score(self, executor: CompactionExecutor, level: int) -> float:
        """Compaction urgency of ``level``; >= 1.0 means over-full."""

    @abc.abstractmethod
    def plan_job(self, executor: CompactionExecutor, level: int) -> CompactionJob | None:
        """Plan one compaction of ``level``, or None if there is nothing
        to do. Raises :class:`CompactionError` for levels the shape
        forbids compacting (the bottom, for leveled shapes)."""

    def pick_level(self, executor: CompactionExecutor) -> int | None:
        """The compactable level with the highest score >= 1.0, if any."""
        best_level, best_score = None, 1.0
        for level in self.compactable_levels(executor):
            score = self.score(executor, level)
            if score >= best_score:
                best_level, best_score = level, score
        return best_level

    def compactable_levels(self, executor: CompactionExecutor) -> range:
        """Levels :meth:`pick_level` considers (default: all but bottom)."""
        return range(executor.manifest.num_levels - 1)

    # ------------------------------------------------------------------
    # Shared planning helpers
    # ------------------------------------------------------------------
    def _leveled_job(
        self, executor: CompactionExecutor, level: int, upper_inputs: list
    ) -> CompactionJob | None:
        """A classic merge of ``upper_inputs`` into the overlap below."""
        if not upper_inputs:
            return None
        manifest, layout, router = executor.manifest, executor.layout, executor.router
        upper_lo = min(table.smallest_key for table in upper_inputs)
        upper_hi = max(table.largest_key for table in upper_inputs)
        lower_inputs = manifest.overlapping_files(level + 1, upper_lo, upper_hi)
        if (
            not lower_inputs
            and len(upper_inputs) == 1
            and router.allows_trivial_move(upper_inputs[0])
            and layout.tier_for_level(level) is layout.tier_for_level(level + 1)
        ):
            return CompactionJob(
                "trivial-move", level, level + 1, upper_inputs, [], upper_lo, upper_hi
            )
        return CompactionJob(
            "leveled", level, level + 1, upper_inputs, lower_inputs,
            upper_lo, upper_hi,
            drop_tombstones=level + 1 == manifest.num_levels - 1,
        )

    def _tiered_job(
        self,
        executor: CompactionExecutor,
        level: int,
        lower_level: int,
        *,
        drop_tombstones: bool,
    ) -> CompactionJob | None:
        """A whole-level merge appended as one new run at ``lower_level``."""
        upper_inputs = list(executor.manifest.files(level))
        if not upper_inputs:
            return None
        return CompactionJob(
            "tiered", level, lower_level, upper_inputs, [],
            min(table.smallest_key for table in upper_inputs),
            max(table.largest_key for table in upper_inputs),
            drop_tombstones=drop_tombstones,
        )


class LevelingStrategy(CompactionStrategy):
    """One sorted run per level; partial merges of picked files.

    This is the shape the paper (and RocksDB's leveled compaction) uses,
    and the executor's original hardcoded behaviour: the baselines'
    zero-tolerance determinism tests pin this strategy to its historical
    output bit for bit.
    """

    name = "leveling"

    def run_stacked_levels(self, options: DBOptions) -> tuple[int, ...]:
        return ()

    def score(self, executor: CompactionExecutor, level: int) -> float:
        if level >= executor.manifest.num_levels - 1:
            return 0.0  # the bottom level never compacts down
        return _level_score(executor, level)

    def plan_job(self, executor: CompactionExecutor, level: int) -> CompactionJob | None:
        manifest = executor.manifest
        if level >= manifest.num_levels - 1:
            raise CompactionError(f"cannot compact bottom level L{level}")
        if level == 0:
            upper_inputs = list(manifest.files(0))
        else:
            upper_inputs = executor.picker.pick_files(manifest, level)
        return self._leveled_job(executor, level, upper_inputs)


class TieringStrategy(CompactionStrategy):
    """A stack of sorted runs per level; whole-level merges.

    Every level below L0 is run-stacked. A full level merges all of its
    runs into one new run pushed onto the level below — each record is
    rewritten once per level, the write-optimized end of the eagerness
    spectrum, paid for with one extra probe per run on reads. The bottom
    level consolidates in place (all runs -> one run) when its stack
    reaches the trigger; consolidation is the only job whose output can
    drop tombstones unconditionally, since nothing older survives it.
    """

    name = "tiering"

    def run_stacked_levels(self, options: DBOptions) -> tuple[int, ...]:
        return tuple(range(1, options.num_levels))

    def score(self, executor: CompactionExecutor, level: int) -> float:
        if level == 0:
            return _level_score(executor, 0)
        # Every deeper level is a run stack, the bottom included: bottom
        # consolidation cannot shrink the level, only its stack, so only
        # the run count may drive it.
        return _run_stack_score(executor, level)

    def compactable_levels(self, executor: CompactionExecutor) -> range:
        return range(executor.manifest.num_levels)  # bottom consolidates

    def plan_job(self, executor: CompactionExecutor, level: int) -> CompactionJob | None:
        manifest = executor.manifest
        bottom = manifest.num_levels - 1
        if not 0 <= level <= bottom:
            raise CompactionError(f"level out of range: L{level}")
        if level == bottom:
            if manifest.run_count(level) <= 1:
                return None  # already one run; nothing to consolidate
            return self._tiered_job(executor, level, level, drop_tombstones=True)
        # Tombstones can be dropped on the way down only when the output
        # run will be the sole run of the bottom level.
        into_empty_bottom = level + 1 == bottom and manifest.file_count(bottom) == 0
        return self._tiered_job(
            executor, level, level + 1, drop_tombstones=into_empty_bottom
        )


class LazyLevelingStrategy(CompactionStrategy):
    """Dostoevsky's hybrid: tier the middle levels, level the last.

    Middle levels are run-stacked and merge whole-level like tiering;
    the bottom level — where ~90 % of the data lives — stays one sorted
    run, so point reads pay tiering's extra probes only on the small
    upper levels. The last stacked level merges *leveled-style* into the
    bottom: all of its files as upper inputs plus the overlapping bottom
    files, with router-retained records re-stacked above.
    """

    name = "lazy-leveling"

    def run_stacked_levels(self, options: DBOptions) -> tuple[int, ...]:
        return tuple(range(1, options.num_levels - 1))

    def score(self, executor: CompactionExecutor, level: int) -> float:
        if level >= executor.manifest.num_levels - 1:
            return 0.0  # the bottom level never compacts down
        if level == 0 or not executor.manifest.is_run_stacked(level):
            return _level_score(executor, level)
        return _run_stack_score(executor, level)

    def plan_job(self, executor: CompactionExecutor, level: int) -> CompactionJob | None:
        manifest = executor.manifest
        bottom = manifest.num_levels - 1
        if level >= bottom:
            raise CompactionError(f"cannot compact bottom level L{level}")
        if level + 1 == bottom:
            # Into the leveled bottom: a whole-level leveled merge. All
            # files of this level participate, so the §4.4 "newest
            # version only" contract holds even though the level's runs
            # overlap.
            return self._leveled_job(executor, level, list(manifest.files(level)))
        return self._tiered_job(executor, level, level + 1, drop_tombstones=False)


_SHAPES = {
    "leveling": LevelingStrategy,
    "tiering": TieringStrategy,
    "lazy-leveling": LazyLevelingStrategy,
}


def make_strategy(options: DBOptions) -> CompactionStrategy:
    """Build the shape selected by ``options.compaction_shape``."""
    try:
        shape = _SHAPES[options.compaction_shape]
    except KeyError:
        raise ConfigError(
            f"unknown compaction_shape {options.compaction_shape!r}; "
            f"choose from {sorted(_SHAPES)}"
        ) from None
    return shape()
