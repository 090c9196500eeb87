"""PrismDB reproduction: read-aware LSM trees for heterogeneous storage.

This package reimplements, in simulation-grade Python, the full system
from *Efficient Compactions between Storage Tiers with PrismDB* (ASPLOS
2023; arXiv title *PrismDB: Read-aware Log-structured Merge Trees for
Heterogeneous Storage*): a leveled LSM engine, the PrismDB
tracker/mapper/placer read-aware compaction machinery, the RocksDB and
Mutant baselines, YCSB-style workloads, and the cost/endurance analysis.

Quickstart::

    from repro import PrismDB, PrismOptions, options_for_db_size

    options = options_for_db_size(20_000 * 130)
    db = PrismDB.create("NNNTQ", options, PrismOptions.for_keyspace(20_000))
    db.put(b"key", b"value")
    assert db.get(b"key").value == b"value"
"""

from repro.baselines import MutantDB, MutantOptions, RocksDBLike
from repro.core import ClockDistributionMapper, ClockTracker, PrismDB, PrismOptions
from repro.lsm import (
    DBOptions,
    LsmDB,
    ReadResult,
    ScanResult,
    StorageLayout,
    WriteResult,
    build_layout,
    options_for_db_size,
)
from repro.workloads import YCSBConfig, YCSBWorkload

__version__ = "1.0.0"

__all__ = [
    "MutantDB",
    "MutantOptions",
    "RocksDBLike",
    "ClockDistributionMapper",
    "ClockTracker",
    "PrismDB",
    "PrismOptions",
    "DBOptions",
    "LsmDB",
    "ReadResult",
    "ScanResult",
    "StorageLayout",
    "WriteResult",
    "build_layout",
    "options_for_db_size",
    "YCSBConfig",
    "YCSBWorkload",
    "__version__",
]
