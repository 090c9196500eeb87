"""The leveled LSM engine: memtable, SSTables, caching, compaction, DB."""

from repro.lsm.block_cache import BlockCache, BlockType, CacheStats
from repro.lsm.bloom import BloomFilter
from repro.lsm.compaction import (
    CompactDownRouter,
    CompactionExecutor,
    CompactionPicker,
    CompactionStats,
    LargestFilePicker,
    MergeRouter,
)
from repro.lsm.db import DBStats, LsmDB, ReadResult, ScanResult, WriteResult
from repro.lsm.manifest_log import EditOp, ManifestLog, VersionEdit, decode_manifest, replay_manifest
from repro.lsm.layout import StorageLayout, build_layout
from repro.lsm.memtable import Memtable
from repro.lsm.options import DBOptions, options_for_db_size
from repro.lsm.record import MAX_SEQNO, Record, ValueKind
from repro.lsm.sstable import UNTRACKED_CLOCK_VALUE, SSTable, SSTableBuilder
from repro.lsm.version import LevelManifest
from repro.lsm.wal import WriteAheadLog

__all__ = [
    "BlockCache",
    "BlockType",
    "CacheStats",
    "BloomFilter",
    "CompactDownRouter",
    "CompactionExecutor",
    "CompactionPicker",
    "CompactionStats",
    "LargestFilePicker",
    "MergeRouter",
    "DBStats",
    "LsmDB",
    "ReadResult",
    "ScanResult",
    "WriteResult",
    "EditOp",
    "ManifestLog",
    "VersionEdit",
    "decode_manifest",
    "replay_manifest",
    "StorageLayout",
    "build_layout",
    "Memtable",
    "DBOptions",
    "options_for_db_size",
    "MAX_SEQNO",
    "Record",
    "ValueKind",
    "UNTRACKED_CLOCK_VALUE",
    "SSTable",
    "SSTableBuilder",
    "LevelManifest",
    "WriteAheadLog",
]
