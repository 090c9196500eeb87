"""The level manifest: which SSTables live at which level.

L0 files may overlap each other and are ordered newest-first (a point
read must consult them in that order). Deeper levels come in two
flavours, chosen per level at construction time by the compaction
*shape* (see ``repro.lsm.strategy``):

* **Leveled** (the default): the level holds one sorted run of
  pairwise-disjoint files kept sorted by smallest key, so a point read
  touches at most one file per level.
* **Run-stacked** (tiering / lazy-leveling): the level holds a stack of
  sorted runs, newest first. Files *within* a run are disjoint and
  key-sorted; *across* runs they may overlap, so a point read probes at
  most one file per run, newest run first.

Every sorted run carries a **fence-pointer index**: the ``largest_key``
of each of its files, in file order. "Which file of this run may hold
key k" is then one ``bisect`` — the first fence >= k — instead of a walk
over the run. The fences are patched in place at the three mutation
points (``add_file`` / ``add_run`` / ``remove_file``) and nowhere else,
so they always mirror the file lists; see docs/PERFORMANCE.md.

``check_invariants`` verifies the structural rules of both flavours plus
the LSM consistency guarantee the paper's pinned compaction must
preserve: for any user key, versions are ordered newest-at-the-top
across levels.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from repro.errors import CompactionError
from repro.lsm.sstable import SSTable


class LevelManifest:
    """Mutable mapping of levels to SSTable lists (or run stacks)."""

    def __init__(
        self, num_levels: int, *, run_stacked_levels: Iterable[int] = ()
    ) -> None:
        if num_levels < 2:
            raise ValueError(f"need at least two levels: {num_levels}")
        self._levels: list[list[SSTable]] = [[] for _ in range(num_levels)]
        self._stacked = frozenset(run_stacked_levels)
        for level in self._stacked:
            if not 1 <= level < num_levels:
                raise ValueError(
                    f"run-stacked level out of range: {level} "
                    f"(L0 is always a stack of overlapping files)"
                )
        #: Run stacks for stacked levels, newest run first. The flat
        #: ``_levels`` view is kept in sync (run-major, newest first) so
        #: size/count queries work identically for both flavours.
        self._runs: dict[int, list[list[SSTable]]] = {
            level: [] for level in self._stacked
        }
        #: Fence pointers. A leveled level is one sorted run, so
        #: ``_fences[level][i] is _levels[level][i].largest_key``; a
        #: stacked level keeps one fence list per run, parallel to
        #: ``_runs[level]``. L0 files overlap, so L0 has no fences.
        self._fences: list[list[bytes]] = [[] for _ in range(num_levels)]
        self._run_fences: dict[int, list[list[bytes]]] = {
            level: [] for level in self._stacked
        }
        #: Bytes per level, and of them those in positively scored files,
        #: kept by the same three mutation points for the scheduler.
        self._level_bytes = [0] * num_levels
        self._hot_bytes = [0] * num_levels
        #: Optional observer with record_add/record_remove(level, file_id),
        #: used to persist version edits to the MANIFEST log.
        self.observer = None

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def is_run_stacked(self, level: int) -> bool:
        """Whether ``level`` holds a stack of possibly-overlapping runs."""
        return level in self._stacked

    def files(self, level: int) -> list[SSTable]:
        """The file list of a level.

        L0 is newest-first; leveled levels are key-sorted; run-stacked
        levels are run-major with the newest run first.
        """
        return self._levels[level]

    def runs(self, level: int) -> list[list[SSTable]]:
        """The level as a list of sorted runs, newest run first.

        Run-stacked levels return their stack; L0 treats every file as
        its own single-file run (files overlap freely there); a leveled
        level is one run (or none when empty).
        """
        if level in self._stacked:
            return self._runs[level]
        files = self._levels[level]
        if level == 0:
            return [[table] for table in files]
        return [files] if files else []

    def run_count(self, level: int) -> int:
        """Number of sorted runs at ``level`` (L0: the file count)."""
        return len(self.runs(level))

    def all_files(self) -> Iterator[tuple[int, SSTable]]:
        for level, files in enumerate(self._levels):
            for table in files:
                yield level, table

    def file_count(self, level: int | None = None) -> int:
        if level is not None:
            return len(self._levels[level])
        return sum(len(files) for files in self._levels)

    def level_bytes(self, level: int) -> int:
        return self._level_bytes[level]

    def hot_bytes(self, level: int) -> int:
        """Bytes at ``level`` in files carrying a positive popularity score."""
        return self._hot_bytes[level]

    def total_bytes(self) -> int:
        return sum(self._level_bytes)

    def level_of(self, table: SSTable) -> int | None:
        for level, files in enumerate(self._levels):
            if table in files:
                return level
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_file(self, level: int, table: SSTable) -> None:
        if level in self._stacked:
            # Each directly-added file forms its own newest run (mirrors
            # L0 semantics; compaction outputs use add_run instead).
            self._push_run(level, [table])
            return
        files = self._levels[level]
        if level == 0:
            files.insert(0, table)  # newest first
        else:
            fences = self._fences[level]
            # Files left of ``pos`` end before the new file starts, so
            # the only possible overlap is with the file at ``pos``:
            # the level invariant.
            pos = bisect_left(fences, table.smallest_key)
            if pos < len(files) and files[pos].smallest_key <= table.largest_key:
                raise CompactionError(
                    f"L{level}: new file [{table.smallest_key!r}..{table.largest_key!r}] "
                    f"overlaps [{files[pos].smallest_key!r}..{files[pos].largest_key!r}]"
                )
            files.insert(pos, table)
            fences.insert(pos, table.largest_key)
        self._level_bytes[level] += table.size_bytes
        if table.popularity_score > 0:
            self._hot_bytes[level] += table.size_bytes
        if self.observer is not None:
            self.observer.record_add(level, table.file_id)

    def add_run(self, level: int, tables: list[SSTable]) -> None:
        """Push ``tables`` as the newest sorted run of a stacked level.

        The run must be internally key-sorted and pairwise disjoint (a
        compaction output always is); overlap with *other* runs at the
        level is the point of run stacking and is allowed.
        """
        if level not in self._stacked:
            raise CompactionError(
                f"L{level} is leveled; add_run only applies to run-stacked levels"
            )
        if not tables:
            return
        for left, right in zip(tables, tables[1:]):
            if left.largest_key >= right.smallest_key:
                raise CompactionError(
                    f"L{level}: run files {left.file_id} and {right.file_id} "
                    f"out of order or overlapping"
                )
        self._push_run(level, list(tables))

    def _push_run(self, level: int, run: list[SSTable]) -> None:
        self._runs[level].insert(0, run)
        self._run_fences[level].insert(0, [table.largest_key for table in run])
        self._reflatten(level)
        self._level_bytes[level] += sum(table.size_bytes for table in run)
        self._hot_bytes[level] += sum(t.size_bytes for t in run if t.popularity_score > 0)
        if self.observer is not None:
            for table in run:
                self.observer.record_add(level, table.file_id)

    def remove_file(self, level: int, table: SSTable) -> None:
        if level == 0:
            try:
                self._levels[0].remove(table)
            except ValueError as exc:
                raise self._not_present(level, table) from exc
        elif level in self._stacked:
            runs = self._runs[level]
            run_fences = self._run_fences[level]
            for index, (run, fences) in enumerate(zip(runs, run_fences)):
                if self._remove_from_run(run, fences, table):
                    if not run:
                        del runs[index], run_fences[index]
                    break
            else:
                raise self._not_present(level, table)
            self._reflatten(level)
        elif not self._remove_from_run(self._levels[level], self._fences[level], table):
            raise self._not_present(level, table)
        self._level_bytes[level] -= table.size_bytes
        if table.popularity_score > 0:
            self._hot_bytes[level] -= table.size_bytes
        if self.observer is not None:
            self.observer.record_remove(level, table.file_id)

    @staticmethod
    def _remove_from_run(run: list[SSTable], fences: list[bytes], table: SSTable) -> bool:
        """Drop ``table`` (and its fence) from a sorted run if it is there."""
        pos = bisect_left(fences, table.largest_key)
        if pos == len(run) or run[pos] is not table:
            return False
        del run[pos], fences[pos]
        return True

    @staticmethod
    def _not_present(level: int, table: SSTable) -> CompactionError:
        return CompactionError(f"file {table.file_id} not present at L{level}")

    def _reflatten(self, level: int) -> None:
        self._levels[level] = [
            table for run in self._runs[level] for table in run
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates_for_key(self, level: int, user_key: bytes) -> list[SSTable]:
        """Files at ``level`` that may contain ``user_key``, probe order.

        L0 probes every overlapping file newest-first; a leveled level
        has at most one candidate; a run-stacked level has at most one
        candidate per run, newest run first.
        """
        files = self._levels[level]
        if level == 0:
            return [
                table for table in files
                if table.smallest_key <= user_key <= table.largest_key
            ]
        if level in self._stacked:
            candidates = []
            for run, fences in zip(self._runs[level], self._run_fences[level]):
                pos = bisect_left(fences, user_key)
                if pos < len(run) and run[pos].smallest_key <= user_key:
                    candidates.append(run[pos])
            return candidates
        # The first fence >= user_key names the only file that can hold it.
        pos = bisect_left(self._fences[level], user_key)
        if pos < len(files) and files[pos].smallest_key <= user_key:
            return [files[pos]]
        return []

    def overlapping_files(self, level: int, lo: bytes, hi: bytes) -> list[SSTable]:
        """All files at ``level`` intersecting [lo, hi], in ``files`` order."""
        if level == 0:
            return [table for table in self._levels[0] if table.overlaps(lo, hi)]
        overlapping = []
        for run, pos in self.seek_runs(level, lo):
            for index in range(pos, len(run)):
                if run[index].smallest_key > hi:
                    break
                overlapping.append(run[index])
        return overlapping

    def seek_runs(self, level: int, start_key: bytes) -> list[tuple[list[SSTable], int]]:
        """Position a cursor on every sorted run of ``level`` (>= 1).

        Returns ``(run, pos)`` per run, newest run first, where
        ``run[pos:]`` are the files that may hold keys >= ``start_key``
        (``pos == len(run)`` when none does).
        """
        if level in self._stacked:
            return [
                (run, bisect_left(fences, start_key))
                for run, fences in zip(self._runs[level], self._run_fences[level])
            ]
        files = self._levels[level]
        return [(files, bisect_left(self._fences[level], start_key))] if files else []

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`CompactionError` on any structural violation."""
        for level, files in enumerate(self._levels):
            if self._level_bytes[level] != sum(table.size_bytes for table in files):
                raise CompactionError(f"L{level} byte total out of sync")
            hot = sum(table.size_bytes for table in files if table.popularity_score > 0)
            if self._hot_bytes[level] != hot:
                raise CompactionError(f"L{level} hot byte total out of sync")
        for level in range(1, self.num_levels):
            if level in self._stacked:
                runs, run_fences = self._runs[level], self._run_fences[level]
                if len(runs) != len(run_fences):
                    raise CompactionError(f"L{level} fence index out of sync")
                for run, fences in zip(runs, run_fences):
                    self._check_run(level, run, fences)
                continue
            self._check_run(level, self._levels[level], self._fences[level])

    @staticmethod
    def _check_run(level: int, files: list[SSTable], fences: list[bytes]) -> None:
        if fences != [table.largest_key for table in files]:
            raise CompactionError(f"L{level} fence index out of sync")
        for table in files:
            if table.smallest_key > table.largest_key:
                raise CompactionError(
                    f"L{level} file {table.file_id} has inverted key range"
                )
        for left, right in zip(files, files[1:]):
            if left.smallest_key > right.smallest_key:
                raise CompactionError(f"L{level} files out of order")
            if left.largest_key >= right.smallest_key:
                raise CompactionError(
                    f"L{level} files {left.file_id} and {right.file_id} overlap"
                )
