"""The LSM key-value store.

:class:`LsmDB` is the engine every system in the reproduction runs on:
vanilla RocksDB-style behaviour falls out of the default picker/router,
PrismDB plugs in its read-aware picker/router, and Mutant wraps the same
engine with a file-migration layer. Compaction *shape* is a parameter,
not a seam: ``DBOptions.compaction_shape`` names which levels the
manifest lets stack more than one sorted run (none for leveling, the
default; tiering and lazy-leveling stack them), and the executor plans
from that. All reads and writes return simulated latencies; the
harness's closed-loop runner turns those into throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from heapq import heapify, heappop, heappushpop

from repro.common.clock import SimClock
from repro.common.rng import fnv1a_64
from repro.common.stats import CounterSet
from repro.errors import DBClosedError
from repro.lsm.block_cache import BlockCache
from repro.lsm.bloom import key_hashes
from repro.lsm.compaction import (
    CompactDownRouter,
    CompactionExecutor,
    CompactionPicker,
    LargestFilePicker,
    MergeRouter,
)
from repro.lsm.layout import StorageLayout
from repro.lsm.manifest_log import ManifestLog, replay_manifest
from repro.lsm.memtable import Memtable, MemtableCursor
from repro.lsm.options import COMPACTION_SHAPES, DBOptions
from repro.lsm.record import RECORD_HEADER_SIZE, Record, ValueKind, make_put_record
from repro.lsm.row_cache import RowCache
from repro.lsm.sstable import RunCursor, SSTable, SSTableBuilder, plan_files
from repro.lsm.version import LevelManifest
from repro.lsm.wal import WriteAheadLog
from repro.obs import MetricsRegistry
from repro.obs.attribution import attribute, set_scope
from repro.storage.backend import StorageBackend
from repro.storage.device import DRAM_SPEC

_DELETE = ValueKind.DELETE
#: Simulated CPU cost of every foreground operation (request parsing,
#: memtable walk, etc.), charged before any device time.
CPU_OVERHEAD_USEC = 2.0
#: The "value" :meth:`LsmDB.delete` hands the write lane. A private
#: object, so ``put(key, None)`` still fails on ``len(None)`` instead of
#: silently writing a tombstone.
_TOMBSTONE = object()


@dataclass(slots=True)
class ReadResult:
    """Outcome of a point lookup.

    Result objects are built once per operation — the hottest allocation
    in the engine after records — so they use ``slots=True`` and skip
    ``frozen`` (frozen construction routes through
    ``object.__setattr__``); they are immutable by convention.
    """

    value: bytes | None
    latency_usec: float
    served_by: str  # "memtable", "L0".."L<n>", or "miss"
    #: Sequence number of the version served (None on miss); the tracker
    #: uses it as the key-version tag (§5).
    seqno: int | None = None

    @property
    def found(self) -> bool:
        return self.value is not None


@dataclass(slots=True)
class WriteResult:
    """Outcome of a put/delete."""

    latency_usec: float
    triggered_flush: bool
    triggered_compactions: int


@dataclass(slots=True)
class ScanResult:
    """Outcome of a range scan."""

    items: list[tuple[bytes, bytes]]
    latency_usec: float


@dataclass
class DBStats:
    """Engine-level counters the experiments read."""

    user_reads: int = 0
    user_writes: int = 0
    user_scans: int = 0
    user_read_bytes: int = 0
    user_write_bytes: int = 0
    reads_by_source: CounterSet = field(default_factory=CounterSet)
    flush_count: int = 0
    flush_bytes: int = 0
    bloom_negative_skips: int = 0

    def write_amplification(self, compaction_write_bytes: int, wal_bytes: int) -> float:
        """(flush + compaction + WAL bytes) / user bytes written."""
        if self.user_write_bytes == 0:
            return 0.0
        total = self.flush_bytes + compaction_write_bytes + wal_bytes
        return total / self.user_write_bytes


class LsmDB:
    """A leveled LSM key-value store over simulated heterogeneous storage."""

    def __init__(
        self,
        layout: StorageLayout,
        options: DBOptions | None = None,
        *,
        clock: SimClock | None = None,
        backend: StorageBackend | None = None,
        picker: CompactionPicker | None = None,
        router: MergeRouter | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "lsm",
    ) -> None:
        self.options = options or DBOptions()
        if layout.num_levels != self.options.num_levels:
            raise ValueError(
                f"layout has {layout.num_levels} levels, options expect "
                f"{self.options.num_levels}"
            )
        self.name = name
        self.layout = layout
        self.clock = clock or SimClock()
        self.backend = backend or StorageBackend(self.clock)
        #: The observability substrate: one registry per DB instance
        #: (the background-job log is ``db.executor.jobs``).
        self.metrics = metrics or MetricsRegistry()
        for tier in layout.tiers:
            tier.device.bind_observability(self.metrics, tier=tier.name)
        self.cache = BlockCache(self.options.block_cache_bytes)
        self.cache.bind_observability(self.metrics)
        self.row_cache = RowCache(self.options.row_cache_bytes)
        if self.options.row_cache_bytes:
            self.row_cache.bind_observability(self.metrics)
        # Options consulted once per operation, cached as plain attributes
        # so the hot paths skip the dataclass attribute walk.
        self._row_cache_enabled = bool(self.options.row_cache_bytes)
        self._memtable_limit = self.options.memtable_bytes
        #: The compaction shape is the set of levels that stack runs.
        num_levels = self.options.num_levels
        self.manifest = LevelManifest(
            num_levels,
            run_stacked_levels=COMPACTION_SHAPES[self.options.compaction_shape](num_levels),
        )
        #: An injected picker wins; otherwise the classic largest-file one.
        self.picker = picker or LargestFilePicker()
        self.router = router or CompactDownRouter()
        self.executor = CompactionExecutor(
            self.backend,
            self.manifest,
            layout,
            self.options,
            self.cache,
            self.picker,
            self.router,
        )
        self.executor.bind_observability(self.metrics)
        self.wal = WriteAheadLog(layout.wal_tier, sync_every=self.options.wal_sync_every)
        # The MANIFEST lives next to the WAL on the fastest tier; every
        # add/remove of an SSTable is logged so the level structure can
        # be rebuilt on restart (see reopen()).
        self.manifest_log = ManifestLog(layout.wal_tier)
        self.manifest.observer = self.manifest_log
        self.stats = DBStats()
        stats = self.stats
        for name, field_name in (
            ("writes", "user_writes"), ("write_bytes", "user_write_bytes"),
            ("flush.count", "flush_count"), ("flush.bytes", "flush_bytes"),
            ("bloom_negative_skips", "bloom_negative_skips"),
        ):
            self.metrics.view(f"db.{name}", partial(getattr, stats, field_name))
        self.metrics.count_views("db.reads", stats.reads_by_source.counts, source=str)
        #: Per-SST-file probe counts (Mutant's temperature signal).
        self.file_read_counts: dict[int, int] = {}
        self._memtable = Memtable()
        self._seqno = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, layout_code: str = "NNNTQ", options: DBOptions | None = None, **kwargs) -> "LsmDB":
        """Convenience constructor building the layout from a code string."""
        from repro.lsm.layout import build_layout

        options = options or DBOptions()
        clock = kwargs.pop("clock", None) or SimClock()
        layout = build_layout(layout_code, options, clock)
        return cls(layout, options, clock=clock, **kwargs)

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError(f"database {self.name!r} is closed")

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, user_key: bytes, value: bytes) -> WriteResult:
        """Insert or update a key."""
        self._check_open()
        return self._commit(user_key, value)

    def delete(self, user_key: bytes) -> WriteResult:
        """Delete a key (writes a tombstone)."""
        return self.put(user_key, _TOMBSTONE)

    def flush(self) -> int:
        """Force-flush the memtable; returns compactions triggered."""
        self._check_open()
        if len(self._memtable) == 0:
            return 0
        self._flush_memtable()
        return self.executor.maybe_compact()

    def _fresh_instance(self) -> "LsmDB":
        """A blank instance on the same layout/backend/clock (restart)."""
        return type(self)(
            self.layout,
            self.options,
            clock=self.clock,
            backend=self.backend,
            picker=self.picker,
            router=self.router,
            name=self.name,
        )

    def reopen(self) -> "LsmDB":
        """Simulate a full process restart and return the reopened DB.

        Durable state survives: SSTables (with their footers), the
        MANIFEST log, and the live WAL segment. Volatile state does not:
        the memtable is rebuilt from the WAL, the block cache starts
        cold, and every table's filter/index must be re-read on first
        use. The returned instance shares the storage backend, layout
        and clock — the "machine" — but none of the in-memory state.
        """
        self._check_open()
        self.close()
        reopened = self._fresh_instance()
        # Rebuild the level structure from the manifest log.
        live = replay_manifest(self.manifest_log.edits())
        max_seqno = 0
        by_level: dict[int, list] = {}
        for file_id, level in live.items():
            table = SSTable.open(self.backend, self.backend.get_file(file_id))
            by_level.setdefault(level, []).append(table)
            max_seqno = max(max_seqno, table.max_seqno)
        reopened.manifest.observer = None  # don't re-log recovered adds
        for level, tables in sorted(by_level.items()):
            # add_file prepends at L0, so feeding ascending file ids
            # (ids are monotonic in creation time) restores newest-first.
            for table in sorted(tables, key=lambda t: t.file_id):
                reopened.manifest.add_file(level, table)
        reopened.manifest_log.compact(live)
        reopened.manifest.observer = reopened.manifest_log
        # Replay the WAL into the fresh memtable.
        for record in self.wal.replay():
            reopened._memtable.add(record)
            max_seqno = max(max_seqno, record.seqno)
            reopened.wal.append(record)
        reopened._seqno = max_seqno
        return reopened

    def simulate_crash_and_recover(self) -> int:
        """Lose all volatile state, then recover from durable state.

        Drops the memtable and the DRAM block cache (as a power loss
        would), then replays the live WAL segment to rebuild the
        memtable — the recovery path every WAL-backed LSM implements.
        Returns the number of records replayed. The sequence counter is
        preserved, so new writes stay newer than every surviving version.
        """
        self._check_open()
        self._memtable = Memtable()
        self.cache.clear()
        self.row_cache.clear()
        replayed = self.wal.replay()
        for record in replayed:
            self._memtable.add(record)
        return len(replayed)

    def _flush_memtable(self) -> None:
        builder = SSTableBuilder(
            self.backend,
            self.layout.tier_for_level(0),
            block_bytes=self.options.block_bytes,
            target_file_bytes=max(
                self.options.target_file_bytes, self._memtable.approximate_bytes * 2
            ),
            bits_per_key=self.options.bits_per_key,
            clock_values_fn=self.router.clock_values_fn(),
        )
        executor = self.executor
        if executor.jobs is not None:
            start, busy_before = self.clock.now, executor.busy_usec()
        # One file whatever its size: cut blocks only.
        records = list(self._memtable.records())
        keys = [record.user_key for record in records]
        chunks = [record.encode() for record in records]
        sizes = list(map(len, chunks))
        builder.add_encoded_blocks(
            keys,
            [record.seqno for record in records],
            [record.kind for record in records],
            chunks, sizes, key_hashes(keys),
            0, plan_files(sizes, self.options.block_bytes, math.inf)[1],
        )
        table = builder.finish()
        self.manifest.add_file(0, table)
        if executor.jobs is not None:
            # Flush I/O is background: the clock does not advance, so the
            # job's duration is the modeled device service time instead.
            executor.log_job(
                "flush", start, executor.busy_usec() - busy_before,
                0, 0, 0, sum(sizes), 0, table.size_bytes,
            )
        self.stats.flush_count += 1
        self.stats.flush_bytes += table.size_bytes
        executor.note_level_write(0, table.size_bytes)
        self.wal.truncate()
        self._memtable = Memtable()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, user_key: bytes) -> ReadResult:
        """Point lookup; returns the newest committed value or None."""
        self._check_open()
        return self._lookup(user_key)

    # ------------------------------------------------------------------
    # Lanes: the one definition of each point operation
    #
    # ``read_lane()`` / ``write_lane()`` return closures with every
    # stable handle bound once; they re-read only ``self._memtable``
    # (swapped on flush and recovery) and ``self._seqno``. The harness
    # fetches lanes per phase; get/put/delete call the instance's cached
    # pair. Lanes take exactly ``(key)`` / ``(key, value)`` — the arity
    # perfbench's oracle wrappers accept — and name what they charge to
    # :mod:`repro.obs.attribution`'s seam. A subclass extends an operation by
    # overriding the public factory around ``self._build_*_lane()``.
    # The closed check runs at hand-out and in the public methods; a
    # lane obtained before ``close()`` is not re-checked.
    # ------------------------------------------------------------------
    def read_lane(self):
        """Return ``lookup(user_key) -> ReadResult``."""
        return self._build_read_lane()

    def write_lane(self):
        """Return ``commit(user_key, value) -> WriteResult``."""
        return self._build_write_lane()

    @cached_property
    def _lookup(self):
        return self.read_lane()

    @cached_property
    def _commit(self):
        return self.write_lane()

    def _build_read_lane(self):
        """The base point-read path every system's lane is built on."""
        self._check_open()
        cpu_overhead = CPU_OVERHEAD_USEC
        row_cache_enabled = self._row_cache_enabled
        row_lookup = self.row_cache.lookup
        row_insert = self.row_cache.insert
        candidates_for_key = self.manifest.candidates_for_key
        num_levels = self.manifest.num_levels
        level_names = [f"L{level}" for level in range(num_levels)]
        level_range = range(num_levels)
        cache = self.cache
        file_read_counts = self.file_read_counts
        stats = self.stats
        reads_by_source_add = self.stats.reads_by_source.add
        dram_read_time = DRAM_SPEC.read_time_usec

        def lookup(user_key):
            latency = cpu_overhead
            attribute("cpu", "-", latency)
            result = None
            record = self._memtable.get(user_key)
            if record is not None:
                memtable_latency = dram_read_time(record.encoded_size())
                attribute("memtable", "dram", memtable_latency)
                latency += memtable_latency
                result = ReadResult(
                    None if record.kind is _DELETE else record.value,
                    latency,
                    "memtable",
                    seqno=record.seqno,
                )
            elif row_cache_enabled:
                row_hit, row_value, row_seqno, row_latency = row_lookup(user_key)
                if row_hit:
                    latency += row_latency
                    result = ReadResult(row_value, latency, "rowcache", seqno=row_seqno)
            if result is None:
                key_hash = fnv1a_64(user_key)  # once, for every table probed
                for level in level_range:
                    found = None
                    for table in candidates_for_key(level, user_key):
                        file_id = table.file_id
                        set_scope(level_names[level], file_id)
                        hit, table_latency, filtered = table.get(user_key, cache, key_hash)
                        latency += table_latency
                        file_read_counts[file_id] = (
                            file_read_counts.get(file_id, 0) + 1
                        )
                        if filtered:
                            stats.bloom_negative_skips += 1
                        if hit is not None:
                            found = hit
                            break
                    if found is not None:
                        result = ReadResult(
                            None if found.kind is _DELETE else found.value,
                            latency,
                            level_names[level],
                            seqno=found.seqno,
                        )
                        break
                set_scope()  # later charges belong to no table probe
                if result is None:
                    result = ReadResult(None, latency, "miss")
                if row_cache_enabled:
                    # Remember what the tree walk resolved (value or absence).
                    row_insert(user_key, result.value, result.seqno or 0)
            stats.user_reads += 1
            value = result.value
            if value is not None:
                stats.user_read_bytes += len(value)
            reads_by_source_add(result.served_by)
            return result

        return lookup

    def _build_write_lane(self):
        """The base put/delete path every system's lane is built on."""
        self._check_open()
        cpu_overhead = CPU_OVERHEAD_USEC
        wal_append = self.wal.append
        row_invalidate = self.row_cache.invalidate
        stats = self.stats
        memtable_limit = self._memtable_limit
        dram_write_time = DRAM_SPEC.write_time_usec
        flush_memtable = self._flush_memtable
        maybe_compact = self.executor.maybe_compact
        header_size = RECORD_HEADER_SIZE

        def commit(user_key, value):
            seqno = self._seqno + 1
            self._seqno = seqno
            if value is _TOMBSTONE:
                record = Record(user_key, seqno, _DELETE)
                encoded_size = header_size + len(user_key)
            else:
                record = make_put_record(user_key, seqno, value)
                encoded_size = header_size + len(user_key) + len(value)
            latency = cpu_overhead
            attribute("cpu", "-", latency)
            latency += wal_append(record, size=encoded_size)
            row_invalidate(user_key)
            memtable = self._memtable
            memtable.add(record)
            memtable_latency = dram_write_time(encoded_size)
            attribute("memtable", "dram", memtable_latency)
            latency += memtable_latency
            stats.user_writes += 1
            stats.user_write_bytes += encoded_size
            flushed = False
            compactions = 0
            if memtable.approximate_bytes >= memtable_limit:
                flush_memtable()
                flushed = True
                compactions = maybe_compact()
            return WriteResult(latency, flushed, compactions)

        return commit

    def scan(self, start_key: bytes, count: int) -> ScanResult:
        """Return up to ``count`` live key-value pairs from ``start_key``."""
        self._check_open()
        if count < 0:
            raise ValueError(f"negative scan count: {count}")
        latency = CPU_OVERHEAD_USEC
        attribute("cpu", "-", latency)
        cache = self.cache
        # Sources open in this order, which fixes the order of their
        # first fetches: memtable, overlapping L0 files newest first
        # (they overlap each other, so each is its own run), then one
        # cursor per sorted run of every deeper level.
        cursors: list = [MemtableCursor(self._memtable, start_key)]
        for table in self.manifest.files(0):
            if table.largest_key >= start_key:
                cursors.append(RunCursor((table,), 0, start_key, cache))
        for level in range(1, self.manifest.num_levels):
            for run, pos in self.manifest.seek_runs(level, start_key):
                if pos < len(run):
                    cursors.append(RunCursor(run, pos, start_key, cache))
        # One merge loop. Heap entries are (key, MAX_SEQNO - seqno,
        # source order): internal-key order, and seqnos are unique, so
        # the order only ever breaks a tie between equal records. The
        # winning entry is held *outside* the heap; heappushpop hands it
        # straight back while it still sorts first (one tuple compare,
        # no sift), so a run of records from one source costs no heap
        # traffic. A cursor is advanced only after its head was consumed
        # and another record is needed, and each advance's fetch latency
        # joins the running total as it happens.
        fetch_latency = 0.0
        heap = []
        for order, cursor in enumerate(cursors):
            if cursor.advance():
                fetch_latency += cursor.latency
                heap.append((cursor.key, cursor.inv, order))
        heapify(heap)
        items: list[tuple[bytes, bytes]] = []
        previous_key = None
        entry = heappop(heap) if heap else None
        while entry is not None:
            key, _, order = entry
            cursor = cursors[order]
            if key != previous_key:  # else: shadowed by a newer version
                previous_key = key
                if cursor.kind:  # a PUT; a tombstone hides the key
                    # Stops on pulling the (count + 1)-th visible record:
                    # a look-ahead the simulated latency has always paid.
                    if len(items) >= count:
                        break
                    items.append((key, cursor.value()))
            if cursor.advance():
                fetch_latency += cursor.latency
                entry = (cursor.key, cursor.inv, order)
                if heap:
                    entry = heappushpop(heap, entry)
            else:
                entry = heappop(heap) if heap else None
        latency += fetch_latency
        self.stats.user_scans += 1
        return ScanResult(items, latency)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def memtable_bytes(self) -> int:
        """Approximate bytes buffered in the active memtable."""
        return self._memtable.approximate_bytes

    @property
    def l0_file_count(self) -> int:
        """Files currently at L0 (the flush backlog the sampler plots)."""
        return self.manifest.file_count(0)

    def total_data_bytes(self) -> int:
        """Bytes currently stored across all levels (excl. memtable)."""
        return self.manifest.total_bytes()

    def level_summary(self) -> list[dict]:
        """Per-level file count / bytes / tier, for debugging and reports."""
        rows = []
        for level in range(self.manifest.num_levels):
            rows.append(
                {
                    "level": level,
                    "files": self.manifest.file_count(level),
                    "bytes": self.manifest.level_bytes(level),
                    "target": self.options.level_target_bytes(level),
                    "tier": self.layout.tier_for_level(level).name,
                }
            )
        return rows

    def describe(self) -> str:
        """A human-readable status report (levels, caches, I/O, policy)."""
        lines = [
            f"{type(self).__name__} {self.name!r} on {self.layout.describe()}",
            f"  clock: {self.clock.now / 1_000_000.0:.3f} sim-seconds",
            f"  memtable: {len(self._memtable)} entries, "
            f"{self._memtable.approximate_bytes} B "
            f"(flush at {self.options.memtable_bytes} B)",
        ]
        for row in self.level_summary():
            fill = row["bytes"] / row["target"] if row["target"] else 0.0
            lines.append(
                f"  L{row['level']}: {row['files']:4d} files, {row['bytes']:>12,} B "
                f"({fill:5.1%} of target) on {row['tier']}"
            )
        cache = self.cache.stats
        lines.append(
            f"  block cache: {self.cache.used_bytes}/{self.cache.capacity_bytes} B, "
            f"hit rate {cache.hit_rate():.1%}"
        )
        if self.options.row_cache_bytes:
            lines.append(
                f"  row cache: {self.row_cache.used_bytes}/{self.row_cache.capacity_bytes} B, "
                f"hit rate {self.row_cache.stats.hit_rate:.1%}"
            )
        exec_stats = self.executor.stats
        lines.append(
            f"  compactions: {exec_stats.compactions} "
            f"(+{exec_stats.trivial_moves} trivial moves), "
            f"{exec_stats.bytes_written / 2**20:.1f} MB written, "
            f"{exec_stats.records.get('pinned', 0)} pinned / "
            f"{exec_stats.records.get('pulled_up', 0)} pulled up"
        )
        wa = self.stats.write_amplification(exec_stats.bytes_written, self.wal.total_bytes)
        lines.append(
            f"  user I/O: {self.stats.user_reads} reads, {self.stats.user_writes} writes, "
            f"WA {wa:.2f}"
        )
        for tier in self.layout.tiers:
            device = tier.device
            lines.append(
                f"  {tier.name}: {device.stats.bytes_read / 2**20:.1f} MB read, "
                f"{device.stats.bytes_written / 2**20:.1f} MB written, "
                f"wear {device.wear_cycles:.3f} P/E cycles"
            )
        return "\n".join(lines)

    def check_invariants(self) -> None:
        """Verify level structure and newest-version-on-top consistency.

        The consistency rule pinned compaction must preserve (§4.4): for
        any user key, *every* version at a deeper level is older than
        *every* version at a shallower level. We track the minimum seqno
        seen at shallower levels and require each level's maximum to stay
        below it. Run-stacked levels get the same rule *within* the
        level, run by run: point reads probe the newest run first and
        stop at the first hit, so a newer run must never hold an older
        version of a key than a run beneath it. The block cache must hold
        blocks of live files only, and account exactly the bytes it holds.
        """
        self.manifest.check_invariants()
        self.cache.check_invariants(table.file_id for _, table in self.manifest.all_files())
        for level in range(self.manifest.num_levels):
            if not self.manifest.is_run_stacked(level):
                continue
            min_seqno_newer: dict[bytes, int] = {}
            for run in self.manifest.runs(level):  # newest first
                run_versions: dict[bytes, tuple[int, int]] = {}
                for table in run:
                    records = table.read_all_records()
                    for record in records:
                        key = record.user_key
                        lo, hi = run_versions.get(key, (record.seqno, record.seqno))
                        run_versions[key] = (min(lo, record.seqno), max(hi, record.seqno))
                for user_key, (lo, hi) in run_versions.items():
                    newer = min_seqno_newer.get(user_key)
                    if newer is not None and hi >= newer:
                        raise AssertionError(
                            f"consistency violation: key {user_key!r} version "
                            f"seqno {hi} at L{level} is not older than seqno "
                            f"{newer} in a newer run of the same level"
                        )
                    min_seqno_newer[user_key] = lo if newer is None else min(newer, lo)
        min_seqno_above: dict[bytes, int] = {}
        for level in range(self.manifest.num_levels):
            level_min: dict[bytes, int] = {}
            level_max: dict[bytes, int] = {}
            for table in self.manifest.files(level):
                records = table.read_all_records()
                for record in records:
                    key = record.user_key
                    level_min[key] = min(level_min.get(key, record.seqno), record.seqno)
                    level_max[key] = max(level_max.get(key, record.seqno), record.seqno)
            for user_key, seqno in level_max.items():
                above = min_seqno_above.get(user_key)
                if above is not None and seqno >= above:
                    raise AssertionError(
                        f"consistency violation: key {user_key!r} version "
                        f"seqno {seqno} at L{level} is not older than "
                        f"seqno {above} at a shallower level"
                    )
            for user_key, seqno in level_min.items():
                above = min_seqno_above.get(user_key)
                min_seqno_above[user_key] = seqno if above is None else min(above, seqno)
