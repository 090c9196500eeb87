"""The MANIFEST: a durable log of version edits.

Real LSM engines persist the level structure as a log of *version edits*
(file added at level L, file removed from level L) so that the tree can
be reconstructed after a restart without scanning storage. This module
implements that log over the simulated backend: every edit is appended
(and charged as a device write on the manifest's tier), and
:func:`replay_manifest` folds the edit sequence back into the live file
set per level.

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
    ADD_FILE = 1
    REMOVE_FILE = 2


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

    def record_add(self, level: int, file_id: int) -> None:
        self._append(EditOp.ADD_FILE, file_id, level)

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

    def compact(self, live: dict[int, int]) -> None:
        """Rewrite the log to just the live set (manifest compaction).

        ``live`` maps file_id -> level. Long-running engines periodically
        rewrite the MANIFEST so it doesn't grow without bound.
        """
        self._log = bytearray().join(
            _RECORD.pack(EditOp.ADD_FILE, file_id, level)
            for file_id, level in sorted(live.items())
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


def replay_manifest(edits: list[VersionEdit]) -> dict[int, int]:
    """Fold edits into the live file set: file_id -> level.

    Raises :class:`CorruptionError` on impossible sequences (removing a
    file that is not live, adding a live file twice).
    """
    live: dict[int, int] = {}
    for edit in edits:
        if edit.op == EditOp.ADD_FILE:
            if edit.file_id in live:
                raise CorruptionError(f"file {edit.file_id} added twice")
            live[edit.file_id] = edit.level
        else:
            if live.get(edit.file_id) != edit.level:
                raise CorruptionError(
                    f"file {edit.file_id} removed from L{edit.level} but "
                    f"live at {live.get(edit.file_id)}"
                )
            del live[edit.file_id]
    return live
