"""Write-ahead log.

Every update is appended (a foreground device write on the WAL's tier)
before it enters the memtable, so update latency includes one log write —
the dominant device cost of the paper's update path. The log is modeled
as an append stream charged directly to the tier's device; segments are
truncated when the memtable they cover is flushed.
"""

from __future__ import annotations

from repro.lsm.record import Record
from repro.obs.attribution import attribute
from repro.storage.tier import StorageTier


class WriteAheadLog:
    """Append-only log charged to one tier's device."""

    def __init__(self, tier: StorageTier, *, sync_every: int = 1) -> None:
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1: {sync_every}")
        self._tier = tier
        self._sync_every = sync_every
        self._appends_since_sync = 0
        self._segment: list[Record] = []
        self.segment_bytes = 0
        self.total_bytes = 0
        self.total_appends = 0
        self.truncations = 0

    @property
    def tier(self) -> StorageTier:
        return self._tier

    def append(self, record: Record, *, size: int | None = None) -> float:
        """Log one record; returns the simulated write latency.

        With ``sync_every`` > 1, writes are group-committed: only every
        N-th append pays the device's program latency (the others ride
        in the same batch and pay only the transfer cost). The log write
        is attributed to ``(wal, tier)``. ``size`` lets callers that
        already computed ``record.encoded_size()`` (the write fast lane)
        skip recomputing it here.
        """
        if size is None:
            size = record.encoded_size()
        self._segment.append(record)
        self.segment_bytes += size
        self.total_bytes += size
        self.total_appends += 1
        self._appends_since_sync += 1
        if self._appends_since_sync >= self._sync_every:
            self._appends_since_sync = 0
            return self._tier.device.write(size, component="wal")
        transfer = size / self._tier.spec.write_bandwidth_bps * 1_000_000.0
        # Not a device access: a named residue until ROADMAP item 1
        # ("durable bytes") folds it into the foreground writes.
        self._tier.device.stats.bytes_written_grouped += size
        attribute("wal", self._tier.name, transfer)
        return transfer

    def truncate(self) -> None:
        """Drop the current segment (its memtable has been flushed)."""
        self._segment = []
        self.segment_bytes = 0
        self.truncations += 1

    def replay(self) -> list[Record]:
        """Records of the live segment, in append order (crash recovery).

        Replaying reads the segment back from the device; the read is
        charged as sequential background I/O.
        """
        if self.segment_bytes:
            self._tier.device.read(self.segment_bytes, foreground=False)
        return list(self._segment)
