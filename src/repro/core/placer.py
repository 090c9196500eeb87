"""The placer: read-aware compaction policy (§4.3).

Two pieces plug into the engine's compaction seams:

* :class:`ReadAwareRouter` — the pinned-compaction merge router. For each
  winning (newest) version in a merge it consults the tracker and mapper:
  popular keys are *retained* in the upper level or *pulled up* from the
  lower level ("up-compaction"); everything else, including tombstones
  and untracked keys, compacts down. Pinning is suspended until the
  tracker is full, as the CLOCK distribution is meaningless before then
  (§4.2, Fig. 6).
* :class:`LowestScorePicker` — the SST selection criterion: files are
  ranked by popularity score (Σ clockⁿ assigned at build time) and the
  *least popular* file is compacted first, keeping hot files in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.core.mapper import ClockDistributionMapper
from repro.core.tracker import ClockTracker
from repro.errors import ConfigError
from repro.lsm.compaction import CompactionPicker, MergeRouter
from repro.lsm.sstable import SSTable
from repro.lsm.version import LevelManifest


@dataclass
class PlacerStats:
    """Routing decisions, split by reason."""

    considered: int = 0
    pinned: int = 0
    pulled_up: int = 0
    rejected_untracked: int = 0
    rejected_by_threshold: int = 0
    rejected_tombstone: int = 0
    rejected_budget_exhausted: int = 0
    rejected_pull_disabled: int = 0
    suspended_tracker_not_full: int = 0


class ReadAwareRouter(MergeRouter):
    """Pinned-compaction routing driven by tracker + mapper."""

    #: Never trivially move a file down: that would skip the pinning
    #: pass and bury hot keys (§4.3).
    supports_trivial_move = False

    def __init__(
        self,
        tracker: ClockTracker,
        mapper: ClockDistributionMapper,
        *,
        pinning_threshold: float = 0.10,
        require_full_tracker: bool = True,
        allow_pull_up: bool = True,
    ) -> None:
        if not 0.0 <= pinning_threshold <= 1.0:
            raise ConfigError(f"pinning threshold out of range: {pinning_threshold}")
        self._tracker = tracker
        self._mapper = mapper
        self._allow_pull_up = allow_pull_up
        self.pinning_threshold = pinning_threshold
        self._require_full_tracker = require_full_tracker
        self._budget_bytes = 0
        self._pull_budget_bytes = 0
        self._upper_level = 0
        self.stats = PlacerStats()

    def allows_trivial_move(self, table: SSTable) -> bool:
        """Cold files (no tracked keys -> non-positive score) may move
        down without a rewrite: there is nothing in them to pin, so the
        pinning pass would be a no-op at full rewrite cost."""
        return table.popularity_score <= 0.0

    def begin_job(
        self,
        upper_level: int,
        lower_level: int,
        upper_lo: bytes,
        upper_hi: bytes,
        upper_budget_bytes: int,
    ) -> None:
        # The level-sizing constraint (§4.3): never retain more data in
        # the upper level than its target leaves room for, otherwise the
        # level stays over-full and compaction churns. Pulls keep a
        # counter of their own that pins do not draw down, so a pull can
        # be admitted past what pins left of the budget (DESIGN.md,
        # "Known modelling quirks").
        self._budget_bytes = upper_budget_bytes
        self._pull_budget_bytes = upper_budget_bytes
        self._upper_level = upper_level

    def route_up_key(
        self, user_key: bytes, kind_code: int, encoded_size: int, source_level: int
    ) -> bool:
        self.stats.considered += 1
        if self._upper_level == 0:
            # Pinning into L0 buys nothing: every L0 compaction takes all
            # L0 files, so a pinned record would just be rewritten on the
            # next job. Hot keys get pinned from L1 down instead.
            return False
        if kind_code == 0:
            # Tombstones are never read; pinning them would waste fast
            # storage and delay space reclamation.
            self.stats.rejected_tombstone += 1
            return False
        if self._require_full_tracker and not self._tracker.is_full:
            self.stats.suspended_tracker_not_full += 1
            return False
        clock = self._tracker.clock_value(user_key)
        if clock < 0:
            self.stats.rejected_untracked += 1
            return False
        size = encoded_size
        is_pull = source_level != self._upper_level
        if is_pull and not self._allow_pull_up:
            # Ablation knob: retention-only pinning, no up-compaction.
            self.stats.rejected_pull_disabled += 1
            return False
        if size > (self._pull_budget_bytes if is_pull else self._budget_bytes):
            self.stats.rejected_budget_exhausted += 1
            return False
        if not self._mapper.should_pin_key(user_key, clock, self.pinning_threshold):
            self.stats.rejected_by_threshold += 1
            return False
        if is_pull:
            self.stats.pulled_up += 1
            self._pull_budget_bytes -= size
        else:
            self.stats.pinned += 1
        self._budget_bytes -= size
        return True

    def route_up_keys(self, user_keys, kind_codes, encoded_sizes, source_levels):
        """The per-key verdicts, with the two job-wide suspensions bulk.

        An L0 job pins nothing and a not-yet-full tracker suspends
        pinning for every record of the job (neither can change while
        the job runs), so both are answered with bulk stats increments
        equal to what the per-key loop would have counted.
        """
        stats = self.stats
        if self._upper_level == 0:
            stats.considered += len(user_keys)
            return None
        if self._require_full_tracker and not self._tracker.is_full:
            tombstones = kind_codes.count(0)
            stats.considered += len(user_keys)
            stats.rejected_tombstone += tombstones
            stats.suspended_tracker_not_full += len(user_keys) - tombstones
            return None
        return super().route_up_keys(user_keys, kind_codes, encoded_sizes, source_levels)

    def clock_value_fn(self):
        """Key -> CLOCK value for output-file popularity scoring."""
        return self._tracker.clock_value

    def clock_values_fn(self):
        return self._tracker.clock_values


class LowestScorePicker(CompactionPicker):
    """Pick the file with the lowest popularity score (§4.3).

    Ties (common early on, when scores are all zero) break toward the
    oldest file so cold data still drains down.
    """

    def pick_files(self, manifest: LevelManifest, level: int) -> list[SSTable]:
        files = manifest.files(level)
        if not files:
            return []
        return [min(files, key=attrgetter("popularity_score", "file.file_id"))]
