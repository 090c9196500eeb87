"""The level manifest: which SSTables live at which level.

L0 files may overlap each other and are ordered newest-first (a point
read must consult them in that order). Every deeper level is a stack of
sorted runs, newest run first: files *within* a run are disjoint and
key-sorted, files *across* runs may overlap, so a point read probes at
most one file per run, newest run first. The compaction shape decides
which levels may stack more than one run (see docs/COMPACTION.md):

* a **leveled** level holds at most one run; :meth:`add_file` merges a
  file into that run and rejects one that overlaps it;
* a **run-stacked** level (tiering, lazy-leveling) takes each added file
  as its own newest run, and a compaction's output as one run
  (:meth:`add_run`).

Every sorted run carries a **fence-pointer index**: the ``largest_key``
of each of its files, in file order. "Which file of this run may hold
key k" is then one ``bisect`` — the first fence >= k — instead of a walk
over the run. The fences are patched in place at the three mutation
points (``add_file`` / ``add_run`` / ``remove_file``) and nowhere else,
so they always mirror the file lists; see docs/PERFORMANCE.md.

``check_invariants`` verifies the structural rules plus the LSM
consistency guarantee the paper's pinned compaction must preserve: for
any user key, versions are ordered newest-at-the-top across levels.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from repro.errors import CompactionError
from repro.lsm.sstable import SSTable


class LevelManifest:
    """Mutable mapping of levels to sorted runs of SSTables."""

    def __init__(
        self, num_levels: int, *, run_stacked_levels: Iterable[int] = ()
    ) -> None:
        if num_levels < 2:
            raise ValueError(f"need at least two levels: {num_levels}")
        self._stacked = frozenset(run_stacked_levels)
        for level in self._stacked:
            if not 1 <= level < num_levels:
                raise ValueError(
                    f"run-stacked level out of range: {level} "
                    f"(L0 is always a stack of overlapping files)"
                )
        #: Per level >= 1, its sorted runs, newest first, and a parallel
        #: list of their fence pointers (``fences[i] is run[i].largest_key``).
        #: L0 files overlap, so L0 keeps neither.
        self._runs: list[list[list[SSTable]]] = [[] for _ in range(num_levels)]
        self._fence_lists: list[list[list[bytes]]] = [[] for _ in range(num_levels)]
        #: The flat file list per level (L0 newest first, deeper levels
        #: run-major): a level's one run itself, or a copy of its runs
        #: rebuilt at each mutation that changes the run list.
        self._levels: list[list[SSTable]] = [[] for _ in range(num_levels)]
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
        """Whether ``level`` may hold more than one (overlapping) run."""
        return level in self._stacked

    def files(self, level: int) -> list[SSTable]:
        """The file list of a level.

        L0 is newest-first; deeper levels are run-major with the newest
        run first, each run key-sorted.
        """
        return self._levels[level]

    def runs(self, level: int) -> list[list[SSTable]]:
        """The level as a list of sorted runs, newest run first.

        L0 treats every file as its own single-file run (files overlap
        freely there).
        """
        if level == 0:
            return [[table] for table in self._levels[0]]
        return self._runs[level]

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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_file(self, level: int, table: SSTable) -> None:
        """Add one file: newest at L0, its own newest run on a stacked
        level, into the one run of a leveled level."""
        if level == 0:
            self._levels[0].insert(0, table)  # newest first
        elif level in self._stacked or not self._runs[level]:
            self._push_run(level, [table])
        else:
            run, fences = self._runs[level][0], self._fence_lists[level][0]
            # Files left of ``pos`` end before the new file starts, so
            # the only possible overlap is with the file at ``pos``:
            # the level invariant.
            pos = bisect_left(fences, table.smallest_key)
            if pos < len(run) and run[pos].smallest_key <= table.largest_key:
                raise CompactionError(
                    f"L{level}: new file [{table.smallest_key!r}..{table.largest_key!r}] "
                    f"overlaps [{run[pos].smallest_key!r}..{run[pos].largest_key!r}]"
                )
            run.insert(pos, table)
            fences.insert(pos, table.largest_key)
        self._account_add(level, table)

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
        for table in tables:
            self._account_add(level, table)

    def _push_run(self, level: int, run: list[SSTable]) -> None:
        self._runs[level].insert(0, run)
        self._fence_lists[level].insert(0, [table.largest_key for table in run])
        self._reflatten(level)

    def _account_add(self, level: int, table: SSTable) -> None:
        self._level_bytes[level] += table.size_bytes
        if table.popularity_score > 0:
            self._hot_bytes[level] += table.size_bytes
        if self.observer is not None:
            self.observer.record_add(level, table.file_id)

    def remove_file(self, level: int, table: SSTable) -> None:
        if level == 0:
            try:
                self._levels[0].remove(table)
            except ValueError as exc:
                raise self._not_present(level, table) from exc
        else:
            runs, run_fences = self._runs[level], self._fence_lists[level]
            for index, (run, fences) in enumerate(zip(runs, run_fences)):
                # The table's fence is its largest key: one bisect per run.
                pos = bisect_left(fences, table.largest_key)
                if pos < len(run) and run[pos] is table:
                    del run[pos], fences[pos]
                    if not run:
                        del runs[index], run_fences[index]
                    break
            else:
                raise self._not_present(level, table)
            self._reflatten(level)
        self._level_bytes[level] -= table.size_bytes
        if table.popularity_score > 0:
            self._hot_bytes[level] -= table.size_bytes
        if self.observer is not None:
            self.observer.record_remove(level, table.file_id)

    @staticmethod
    def _not_present(level: int, table: SSTable) -> CompactionError:
        return CompactionError(f"file {table.file_id} not present at L{level}")

    def _reflatten(self, level: int) -> None:
        runs = self._runs[level]
        # A one-run level's file list is the run itself, patched in
        # place by add_file and remove_file: no copy per mutation.
        self._levels[level] = runs[0] if len(runs) == 1 else [
            table for run in runs for table in run
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates_for_key(self, level: int, user_key: bytes) -> list[SSTable]:
        """Files at ``level`` that may contain ``user_key``, probe order.

        L0 probes every overlapping file newest-first; a deeper level
        has at most one candidate per run, newest run first.
        """
        if level == 0:
            return [
                table for table in self._levels[0]
                if table.smallest_key <= user_key <= table.largest_key
            ]
        runs = self._runs[level]
        if len(runs) == 1:
            # One run (every non-empty leveled level): one bisect, no loop.
            # The first fence >= user_key names the only file that can hold it.
            run = runs[0]
            pos = bisect_left(self._fence_lists[level][0], user_key)
            if pos < len(run) and run[pos].smallest_key <= user_key:
                return [run[pos]]
            return []
        if not runs:
            return []
        candidates = []
        for run, fences in zip(runs, self._fence_lists[level]):
            pos = bisect_left(fences, user_key)
            if pos < len(run) and run[pos].smallest_key <= user_key:
                candidates.append(run[pos])
        return candidates

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
        runs = self._runs[level]
        if len(runs) == 1:  # one bisect, as in candidates_for_key
            return [(runs[0], bisect_left(self._fence_lists[level][0], start_key))]
        if not runs:
            return []
        cursors = []  # a loop, not a comprehension: no nested frame per scan
        for run, fences in zip(runs, self._fence_lists[level]):
            cursors.append((run, bisect_left(fences, start_key)))
        return cursors

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
            runs, run_fences = self._runs[level], self._fence_lists[level]
            if len(runs) > 1 and level not in self._stacked:
                raise CompactionError(f"L{level} is leveled but holds {len(runs)} runs")
            if len(runs) != len(run_fences):
                raise CompactionError(f"L{level} fence index out of sync")
            if self._levels[level] != [table for run in runs for table in run]:
                raise CompactionError(f"L{level} file list out of sync with its runs")
            for run, fences in zip(runs, run_fences):
                self._check_run(level, run, fences)

    @staticmethod
    def _check_run(level: int, files: list[SSTable], fences: list[bytes]) -> None:
        if not files:
            raise CompactionError(f"L{level} holds an empty run")
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
