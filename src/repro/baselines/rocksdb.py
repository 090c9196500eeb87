"""The RocksDB baseline.

Vanilla RocksDB is the engine with its default behaviour: largest-file
compaction picking and route-everything-down merging. On a homogeneous
layout this is "RocksDB on one SSD"; on NNNTQ it is the paper's *LSM-het*
configuration (§3.2) — levels mapped to tiers but with no read-awareness,
which is exactly the strawman Fig. 2a shows barely beating pure QLC.

Per-request latency attribution needs nothing here: the baseline adds
no components of its own, so the breakdown holds only what the core
LSM's charge sites name (memtable, caches, filter/index/data blocks,
WAL, devices).
"""

from __future__ import annotations

from repro.lsm.db import LsmDB
from repro.lsm.layout import StorageLayout
from repro.lsm.options import DBOptions


class RocksDBLike(LsmDB):
    """Write-aware leveled LSM: the paper's RocksDB baseline."""

    def __init__(
        self,
        layout: StorageLayout,
        options: DBOptions | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("name", "rocksdb")
        # LsmDB's defaults are RocksDB's: largest-file picking and the
        # compact-down router.
        super().__init__(layout, options, **kwargs)
