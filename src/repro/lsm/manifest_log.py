"""The MANIFEST: a durable log of version edits.

Real LSM engines persist the level structure as a log of *version edits*
(file added at level L, file removed from level L) so that the tree can
be reconstructed after a restart without scanning storage. This module
implements that log over the simulated backend: every edit is appended
(and charged as a device write on the manifest's tier), and
:func:`replay_manifest` folds the edit sequence back into the live
sorted runs per level. An added file either opens a new newest run at
its level (``NEW_RUN``) or joins the newest one (``ADD_FILE``), so the
run boundaries survive a restart in the same 6 bytes per edit.

Together with the WAL this gives the engine a complete restart story:
``LsmDB.reopen`` rebuilds the manifest from this log, re-attaches the
surviving SSTables, and replays the WAL into a fresh memtable.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.storage.tier import StorageTier

_RECORD = struct.Struct("<BIB")  # op, file_id, level


class EditOp(enum.IntEnum):
    #: The file joins the newest run of its level.
    ADD_FILE = 1
    REMOVE_FILE = 2
    #: The file opens a new newest run at its level.
    NEW_RUN = 3


@dataclass(frozen=True)
class VersionEdit:
    """One manifest record."""

    op: EditOp
    file_id: int
    level: int

    def encode(self) -> bytes:
        return _RECORD.pack(int(self.op), self.file_id, self.level)

    @staticmethod
    def decode_from(buf: bytes, offset: int) -> tuple["VersionEdit", int]:
        if offset + _RECORD.size > len(buf):
            raise CorruptionError(f"truncated manifest record at {offset}")
        op, file_id, level = _RECORD.unpack_from(buf, offset)
        try:
            edit_op = EditOp(op)
        except ValueError as exc:
            raise CorruptionError(f"bad manifest op {op} at {offset}") from exc
        return VersionEdit(edit_op, file_id, level), offset + _RECORD.size


class ManifestLog:
    """Append-only version-edit log charged to one tier's device.

    The log is held in its wire form, 6 bytes per edit; only
    :meth:`edits` — the restart path — decodes it.
    """

    def __init__(self, tier: StorageTier) -> None:
        self._tier = tier
        self._log = bytearray()
        self.bytes_written = 0

    def __len__(self) -> int:
        return len(self._log) // _RECORD.size

    def record_add(self, level: int, file_id: int, new_run: bool) -> None:
        self._append(EditOp.NEW_RUN if new_run else EditOp.ADD_FILE, file_id, level)

    def record_remove(self, level: int, file_id: int) -> None:
        self._append(EditOp.REMOVE_FILE, file_id, level)

    def _append(self, op: EditOp, file_id: int, level: int) -> None:
        self._log += _RECORD.pack(op, file_id, level)
        self.bytes_written += _RECORD.size
        # Manifest appends are small sequential writes off the critical
        # path of user operations.
        self._tier.device.write(_RECORD.size, foreground=False)

    def serialized(self) -> bytes:
        """The full log as bytes (what a restart would read)."""
        return bytes(self._log)

    def edits(self) -> list[VersionEdit]:
        return decode_manifest(self._log)

    def compact(self, runs: dict[int, list[list[int]]]) -> None:
        """Rewrite the log to just the live runs (manifest compaction).

        ``runs`` maps level -> its runs of file ids, newest first, as
        :func:`replay_manifest` returns them. Each level's runs are
        written oldest first, one edit per file, so replaying the
        rewritten log yields ``runs`` again. Long-running engines
        periodically rewrite the MANIFEST so it doesn't grow without
        bound.
        """
        self._log = bytearray().join(
            _RECORD.pack(EditOp.ADD_FILE if index else EditOp.NEW_RUN, file_id, level)
            for level, level_runs in sorted(runs.items())
            for run in reversed(level_runs)
            for index, file_id in enumerate(run)
        )
        self.bytes_written += len(self._log)
        self._tier.device.write(len(self._log), foreground=False)


def decode_manifest(buf: bytes) -> list[VersionEdit]:
    """Parse a serialized manifest back into its edit sequence."""
    edits: list[VersionEdit] = []
    offset = 0
    while offset < len(buf):
        edit, offset = VersionEdit.decode_from(buf, offset)
        edits.append(edit)
    return edits


def replay_manifest(edits: list[VersionEdit]) -> dict[int, list[list[int]]]:
    """Fold edits into the live runs: level -> runs of file ids, newest
    run first, each in the order its files were added.

    Raises :class:`CorruptionError` on impossible sequences (removing a
    file that is not live, adding a live file twice, joining a level
    that holds no run).
    """
    runs: dict[int, list[list[int]]] = {}
    live: dict[int, int] = {}  # file_id -> level
    for edit in edits:
        file_id, level = edit.file_id, edit.level
        if edit.op == EditOp.REMOVE_FILE:
            if live.get(file_id) != level:
                raise CorruptionError(
                    f"file {file_id} removed from L{level} but live at {live.get(file_id)}"
                )
            del live[file_id]
            level_runs = runs[level]
            for index, run in enumerate(level_runs):
                if file_id in run:
                    run.remove(file_id)
                    if not run:
                        del level_runs[index]
                    break
            continue
        if file_id in live:
            raise CorruptionError(f"file {file_id} added twice")
        live[file_id] = level
        level_runs = runs.setdefault(level, [])
        if edit.op == EditOp.NEW_RUN:
            level_runs.insert(0, [file_id])
        elif level_runs:
            level_runs[0].append(file_id)
        else:
            raise CorruptionError(f"file {file_id} joins no run at L{level}")
    return {level: level_runs for level, level_runs in runs.items() if level_runs}
