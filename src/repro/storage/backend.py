"""Simulated file storage backend.

Files hold real bytes in memory but every access is charged to the tier's
device model, producing simulated latency. The backend supports the three
access patterns the systems above it need:

* **SSTable / WAL writes** — whole-file sequential writes
  (:meth:`StorageBackend.create_file`), charged at write bandwidth;
  compaction outputs are background I/O.
* **Block reads** — random reads of an aligned byte range
  (:meth:`StorageBackend.read`), charged one device access per call.
* **Migration** — Mutant's whole-file moves between tiers
  (:meth:`StorageBackend.migrate_file`), which lock the file: foreground
  reads that arrive mid-migration stall until the move completes,
  reproducing the paper's report of order-of-magnitude read spikes during
  Mutant migrations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.clock import SimClock
from repro.errors import StorageError
from repro.obs.attribution import attribute
from repro.storage.tier import StorageTier


class SimFile:
    """One immutable simulated file resident on a tier.

    ``data`` is the file's whole contents. Failure injection may swap in
    corrupted bytes wholesale; ``view`` is made from ``data`` per call,
    so every read after the swap sees the new bytes.
    """

    __slots__ = ("file_id", "tier", "data", "locked_until_usec", "deleted")

    def __init__(self, file_id: int, tier: StorageTier, data: bytes) -> None:
        self.file_id = file_id
        self.tier = tier
        self.data = data
        self.locked_until_usec = 0.0
        self.deleted = False

    @property
    def view(self) -> memoryview:
        """A zero-copy window over ``data``, made per call."""
        return memoryview(self.data)

    @property
    def size(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimFile(id={self.file_id}, tier={self.tier.name}, {self.size} B)"


@dataclass
class BackendStats:
    """File lifecycle, migration and lock-stall counts.

    Bytes moved are counted once, by each tier's device
    (:class:`~repro.storage.device.DeviceStats`).
    """

    files_created: int = 0
    files_deleted: int = 0
    migrations: int = 0
    migration_bytes: int = 0
    lock_stall_usec: float = 0.0
    lock_stalls: int = 0


class StorageBackend:
    """Factory and access mediator for :class:`SimFile` objects."""

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._files: dict[int, SimFile] = {}
        self.stats = BackendStats()

    @property
    def clock(self) -> SimClock:
        return self._clock

    @property
    def live_files(self) -> int:
        return len(self._files)

    def get_file(self, file_id: int) -> SimFile:
        """Look up a live file by id (restart/recovery path)."""
        file = self._files.get(file_id)
        if file is None:
            raise StorageError(f"no live file with id {file_id}")
        return file

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------
    def create_file(self, tier: StorageTier, data: bytes) -> SimFile:
        """Write ``data`` as a new file on ``tier``.

        The write is background I/O (flush, compaction): it adds no
        foreground latency and is charged to the tier's backlog.
        """
        tier.allocate(len(data))
        tier.device.write(len(data), foreground=False)
        file = SimFile(next(self._ids), tier, data)
        self._files[file.file_id] = file
        self.stats.files_created += 1
        return file

    def delete_file(self, file: SimFile) -> None:
        """Delete a file and release its tier capacity. Idempotent."""
        if file.deleted:
            return
        file.deleted = True
        file.tier.release(file.size)
        self._files.pop(file.file_id, None)
        self.stats.files_deleted += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, file: SimFile, offset: int, length: int, *, foreground: bool = True, component: str = "io") -> tuple[bytes | memoryview, float]:
        """Read ``length`` bytes at ``offset``; returns (data, latency).

        The returned data is zero-copy: a whole-file read hands back the
        file's own immutable ``bytes`` object, a partial read a
        ``memoryview`` slice of it. Callers that need an independent
        ``bytes`` (rare — decoders slice out exactly the fields they
        keep) must convert explicitly.

        The device time is attributed to ``component`` and any
        mid-migration lock stall to ``(migration_stall, tier)``.
        """
        if file.deleted:
            raise StorageError(f"read from deleted file {file.file_id}")
        if offset < 0 or length < 0 or offset + length > file.size:
            raise StorageError(
                f"read out of bounds: [{offset}, {offset + length}) of "
                f"{file.size} B file {file.file_id}"
            )
        stall = 0.0
        if foreground and file.locked_until_usec > self._clock.now:
            stall = file.locked_until_usec - self._clock.now
            self.stats.lock_stall_usec += stall
            self.stats.lock_stalls += 1
            attribute("migration_stall", file.tier.name, stall)
        latency = file.tier.device.read(length, foreground=foreground, component=component) + stall
        if offset == 0 and length == len(file.data):
            return file.data, latency
        return file.view[offset : offset + length], latency

    # ------------------------------------------------------------------
    # Migration (Mutant)
    # ------------------------------------------------------------------
    def migrate_file(self, file: SimFile, dst_tier: StorageTier) -> float:
        """Move a file to ``dst_tier``, locking it for the transfer time.

        The move is background I/O (read on the source, write on the
        destination) but the lock duration — the larger of the two
        transfer times — blocks any foreground read arriving before the
        migration finishes. Returns the lock duration in usec.
        """
        if file.deleted:
            raise StorageError(f"migrate deleted file {file.file_id}")
        if dst_tier is file.tier:
            return 0.0
        src_tier = file.tier
        dst_tier.allocate(file.size)
        read_time = src_tier.spec.read_time_usec(file.size)
        write_time = dst_tier.spec.write_time_usec(file.size)
        src_tier.device.read(file.size, foreground=False)
        dst_tier.device.write(file.size, foreground=False)
        src_tier.release(file.size)
        file.tier = dst_tier
        lock_duration = max(read_time, write_time)
        file.locked_until_usec = self._clock.now + lock_duration
        self.stats.migrations += 1
        self.stats.migration_bytes += file.size
        return lock_duration
