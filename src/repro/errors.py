"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An option object or constructor argument is invalid."""


class StorageError(ReproError):
    """Base class for storage-substrate failures."""


class CapacityError(StorageError):
    """A tier or file would exceed its configured capacity."""


class CorruptionError(ReproError):
    """A serialized structure (block, SSTable, WAL record) failed to parse."""


class DBClosedError(ReproError):
    """An operation was attempted on a closed database."""


class CompactionError(ReproError):
    """A compaction job could not be planned or executed."""


class ObservabilityError(ReproError):
    """Misuse of the metrics registry (type clash, label cardinality)."""


class ShardError(ReproError):
    """A fleet shard failed: names the shard, its seed and a one-line repro.

    Built from plain values (the cause as text), so it pickles back
    intact from a pool worker.
    """

    def __init__(self, shard_id: int, seed: int, repro: str, cause: str) -> None:
        super().__init__(shard_id, seed, repro, cause)
        self.shard_id = shard_id
        self.seed = seed
        self.repro = repro
        self.cause = cause

    def __str__(self) -> str:
        return (
            f"shard {self.shard_id} (seed {self.seed}) failed: {self.cause}\n"
            f"  repro: {self.repro}"
        )
