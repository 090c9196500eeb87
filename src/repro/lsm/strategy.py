"""Compaction strategies: the shape and trigger axes of the design space.

Sarkar et al. ("Compactionary", arXiv:2202.04522) decompose LSM
compaction into orthogonal policy choices; this module implements the
two that the executor in :mod:`repro.lsm.compaction` does not already
expose as seams:

* **Shape** (eagerness): how runs are arranged per level and what one
  compaction job merges. :class:`LevelingStrategy` keeps one sorted run
  per level and merges one picked file down (the paper's configuration).
  :class:`TieringStrategy` stacks sorted runs per level and merges a
  whole level into one new run one level down. :class:`LazyLevelingStrategy`
  tiers the middle levels but levels the last one (Dostoevsky's hybrid —
  tiering's write cost for most data, leveling's read cost where most
  data lives).
* **Trigger**: when a level counts as over-full. :class:`SizeRatioTrigger`
  is RocksDB's bytes-vs-target rule, :class:`FileCountTrigger` fires on
  file counts alone, and :class:`StalenessTrigger` adds an age rule so
  old files are rewritten even without size pressure.

The third axis, *picking*, stays in :mod:`repro.lsm.compaction`
(:class:`~repro.lsm.compaction.CompactionPicker`) because only partial
— i.e. leveled — compactions pick files; tiered jobs always merge whole
levels. The §4.4 consistency rule forces this: on a run-stacked level a
partial merge could move a key's newest version below an older version
left behind in a sibling run, so tiered jobs take *every* run of the
level, which also makes the rule's "newest surviving version only"
contract trivially true for the router.

``make_strategy`` / ``make_trigger`` / ``make_picker`` build policies
from the names in :class:`~repro.lsm.options.DBOptions`; see
docs/COMPACTION.md for the handbook and a worked "add a policy"
example.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import CompactionError, ConfigError
from repro.lsm.compaction import (
    CompactionJob,
    CompactionPicker,
    LargestFilePicker,
    OldestFilePicker,
    RoundRobinPicker,
)
from repro.lsm.options import DBOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lsm.compaction import CompactionExecutor


class TriggerPolicy(abc.ABC):
    """When is a level over-full? Scores >= 1.0 fire a compaction."""

    name: str = "?"

    @abc.abstractmethod
    def level_score(self, executor: CompactionExecutor, level: int) -> float:
        """Urgency of compacting a *leveled* level (or L0)."""

    def run_stack_score(self, executor: CompactionExecutor, level: int) -> float:
        """Urgency of compacting a *run-stacked* level.

        The default is the classic tiering rule: fire when the stack
        reaches ``tiering_run_trigger`` sorted runs.
        """
        return (
            executor.manifest.run_count(level)
            / executor.options.tiering_run_trigger
        )

    def prefers_oldest(self, executor: CompactionExecutor, level: int) -> bool:
        """Whether this firing should compact the oldest file first.

        Age-based triggers override this so a partial compaction is
        guaranteed to retire the file that caused the firing; otherwise
        a size-based picker could leave the stale file in place forever.
        """
        return False


class SizeRatioTrigger(TriggerPolicy):
    """RocksDB's rule: level bytes vs target; L0 by file count.

    Hot (positively-scored) bytes are discounted up to the pin reserve:
    retained popular data occupies the level without re-triggering
    compaction of it (§4.3's level-sizing accommodation).
    """

    name = "size-ratio"

    def level_score(self, executor: CompactionExecutor, level: int) -> float:
        manifest, options = executor.manifest, executor.options
        if level == 0:
            return manifest.file_count(0) / options.l0_compaction_trigger
        target = options.level_target_bytes(level)
        reserve = int(target * options.pin_reserve_fraction)
        discounted = min(manifest.hot_bytes(level), reserve)
        return (manifest.level_bytes(level) - discounted) / target


class FileCountTrigger(TriggerPolicy):
    """Fire on file counts alone: L0 at ``l0_compaction_trigger`` files,
    deeper levels at ``file_count_trigger`` files.

    Size-blind, so a level full of tiny files (heavy pinning, small
    flushes) still gets consolidated; conversely a level holding few
    huge files never fires. On run-stacked levels it counts files, not
    runs, for the same reason.
    """

    name = "file-count"

    def level_score(self, executor: CompactionExecutor, level: int) -> float:
        manifest, options = executor.manifest, executor.options
        if level == 0:
            return manifest.file_count(0) / options.l0_compaction_trigger
        return manifest.file_count(level) / options.file_count_trigger

    def run_stack_score(self, executor: CompactionExecutor, level: int) -> float:
        return (
            executor.manifest.file_count(level)
            / executor.options.file_count_trigger
        )


class StalenessTrigger(SizeRatioTrigger):
    """Size-ratio plus an age rule.

    A level also fires when its oldest file's id lags the newest file id
    anywhere in the tree by at least ``staleness_file_window`` — a proxy
    for wall-clock age in a simulator where file ids are monotonic.
    Rewriting stale files bounds how long deleted/shadowed data can hide
    in a quiet level. Firings caused by age compact the *oldest* file
    (see :meth:`prefers_oldest`), so each job retires the offending file
    and the score converges.
    """

    name = "staleness"

    def _staleness(self, executor: CompactionExecutor, level: int) -> float:
        files = executor.manifest.files(level)
        if not files:
            return 0.0
        newest = max(t.file_id for _, t in executor.manifest.all_files())
        oldest = min(t.file_id for t in files)
        return (newest - oldest) / executor.options.staleness_file_window

    def level_score(self, executor: CompactionExecutor, level: int) -> float:
        return max(
            super().level_score(executor, level),
            self._staleness(executor, level),
        )

    def run_stack_score(self, executor: CompactionExecutor, level: int) -> float:
        return max(
            super().run_stack_score(executor, level),
            self._staleness(executor, level),
        )

    def prefers_oldest(self, executor: CompactionExecutor, level: int) -> bool:
        return self._staleness(executor, level) >= 1.0


class CompactionStrategy(abc.ABC):
    """The shape axis: run arrangement per level and job planning."""

    name: str = "?"

    def __init__(self, trigger: TriggerPolicy | None = None) -> None:
        self.trigger = trigger or SizeRatioTrigger()

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
    zero-tolerance determinism tests pin this strategy (with
    :class:`SizeRatioTrigger`) to its historical output bit for bit.
    """

    name = "leveling"

    def run_stacked_levels(self, options: DBOptions) -> tuple[int, ...]:
        return ()

    def score(self, executor: CompactionExecutor, level: int) -> float:
        if level >= executor.manifest.num_levels - 1:
            return 0.0  # the bottom level never compacts down
        return self.trigger.level_score(executor, level)

    def plan_job(self, executor: CompactionExecutor, level: int) -> CompactionJob | None:
        manifest = executor.manifest
        if level >= manifest.num_levels - 1:
            raise CompactionError(f"cannot compact bottom level L{level}")
        if level == 0:
            upper_inputs = list(manifest.files(0))
        elif self.trigger.prefers_oldest(executor, level):
            upper_inputs = OldestFilePicker().pick_files(manifest, level)
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
            return self.trigger.level_score(executor, 0)
        if level == executor.manifest.num_levels - 1:
            # Bottom consolidation is purely run-count driven: it cannot
            # shrink the level, only its stack, so size/age triggers
            # would fire forever here.
            return (
                executor.manifest.run_count(level)
                / executor.options.tiering_run_trigger
            )
        return self.trigger.run_stack_score(executor, level)

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
            return self.trigger.level_score(executor, level)
        return self.trigger.run_stack_score(executor, level)

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


# ----------------------------------------------------------------------
# Name -> policy factories (the DBOptions seam)
# ----------------------------------------------------------------------
_TRIGGERS = {
    "size-ratio": SizeRatioTrigger,
    "file-count": FileCountTrigger,
    "staleness": StalenessTrigger,
}
_SHAPES = {
    "leveling": LevelingStrategy,
    "tiering": TieringStrategy,
    "lazy-leveling": LazyLevelingStrategy,
}


def make_trigger(name: str) -> TriggerPolicy:
    """Build a trigger policy from its ``DBOptions.compaction_trigger`` name."""
    try:
        return _TRIGGERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown compaction_trigger {name!r}; choose from {sorted(_TRIGGERS)}"
        ) from None


def make_strategy(options: DBOptions) -> CompactionStrategy:
    """Build the shape+trigger composite selected by ``options``."""
    try:
        shape = _SHAPES[options.compaction_shape]
    except KeyError:
        raise ConfigError(
            f"unknown compaction_shape {options.compaction_shape!r}; "
            f"choose from {sorted(_SHAPES)}"
        ) from None
    return shape(make_trigger(options.compaction_trigger))


def make_picker(name: str) -> CompactionPicker | None:
    """Build a picker from its ``DBOptions.compaction_picker`` name.

    Returns None for ``"default"`` so the system keeps its own choice
    (LsmDB: largest-file; PrismDB: the §4.3 lowest-score picker).
    """
    if name == "default":
        return None
    if name == "largest":
        return LargestFilePicker()
    if name == "oldest":
        return OldestFilePicker()
    if name == "round-robin":
        return RoundRobinPicker()
    if name == "lowest-score":
        # Deferred: repro.core depends on repro.lsm, not the reverse;
        # resolving the name here at call time keeps imports acyclic.
        from repro.core.placer import LowestScorePicker

        return LowestScorePicker()
    raise ConfigError(f"unknown compaction_picker {name!r}")
