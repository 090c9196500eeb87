"""Compaction: pluggable policies over one shared executor.

The executor is shared by every system in the reproduction; behaviour is
specialized through three orthogonal policy axes (the design space of
Sarkar et al., arXiv:2202.04522 — see docs/COMPACTION.md) plus the
record-routing seam the paper turns:

* a :class:`~repro.lsm.strategy.CompactionStrategy` — the *shape* axis —
  decides how runs are arranged per level (leveling, tiering with run
  stacks, lazy-leveling) and plans whole compaction jobs, consulting a
  :class:`~repro.lsm.strategy.TriggerPolicy` (*trigger* axis: size
  ratio, file count, staleness) for when a level is over-full;
* a :class:`CompactionPicker` — the *picking* axis — chooses *which SST
  file* a partial (leveled) compaction takes from an over-full level
  (classic RocksDB: largest file; PrismDB §4.3: the file with the lowest
  popularity score; also oldest and round-robin); and
* a :class:`MergeRouter` decides *where each merged record goes*
  (classic: everything moves down; PrismDB §4.2-4.3: popular keys are
  pinned to the upper level or pulled up from the lower one). The router
  composes with every shape.

The router contract keeps the LSM consistency guarantee (§4.4): the
executor feeds it only the *newest* surviving version of each key among
the compaction inputs, and up-routing is restricted to the upper input
key range so level disjointness is preserved where the shape requires
it. Shapes that merge whole levels (tiering, lazy-leveling) satisfy the
rule trivially: every version of a key at the upper level participates
in the job.

Execution is the fourth primitive of that design space, data *movement*,
and exists once: :meth:`CompactionExecutor.execute` re-parents a file
(trivial move) or runs the one merge — scan, sort, shadow, route, range
check, emit — for leveled and tiered jobs alike. A tiered job is a
leveled job without lower inputs whose range covers the whole level;
the styles differ only in how retained outputs are installed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.errors import CompactionError
from repro.lsm.block_cache import BlockCache
from repro.lsm.layout import StorageLayout
from repro.lsm.options import DBOptions
from repro.lsm.record import MAX_SEQNO
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.version import LevelManifest
from repro.obs import NOOP_TRACER, MetricsRegistry, Tracer
from repro.storage.backend import StorageBackend


class CompactionPicker(abc.ABC):
    """Chooses the input file(s) from an over-full level."""

    @abc.abstractmethod
    def pick_files(self, manifest: LevelManifest, level: int) -> list[SSTable]:
        """Select upper-level input files for a compaction of ``level``."""


class LargestFilePicker(CompactionPicker):
    """Classic heuristic: compact the biggest file (reclaims most space)."""

    def pick_files(self, manifest: LevelManifest, level: int) -> list[SSTable]:
        files = manifest.files(level)
        if not files:
            return []
        return [max(files, key=lambda table: (table.size_bytes, -table.file_id))]


class OldestFilePicker(CompactionPicker):
    """Round-robin-ish alternative: compact the oldest file first."""

    def pick_files(self, manifest: LevelManifest, level: int) -> list[SSTable]:
        files = manifest.files(level)
        if not files:
            return []
        return [min(files, key=lambda table: table.file_id)]


class RoundRobinPicker(CompactionPicker):
    """Cycle through a level's files in file-id order.

    A per-level cursor remembers the last picked file id; each pick takes
    the live file with the smallest id strictly above the cursor,
    wrapping to the smallest id when the cursor passes the end. Every
    file gets compacted eventually regardless of size or popularity —
    the fairness baseline of the picking axis.
    """

    def __init__(self) -> None:
        self._cursor: dict[int, int] = {}

    def pick_files(self, manifest: LevelManifest, level: int) -> list[SSTable]:
        files = manifest.files(level)
        if not files:
            return []
        cursor = self._cursor.get(level, -1)
        above = [table for table in files if table.file_id > cursor]
        victim = min(above or files, key=lambda table: table.file_id)
        self._cursor[level] = victim.file_id
        return [victim]


class MergeRouter(abc.ABC):
    """Decides, per merged record, whether it stays in the upper level."""

    #: Whether a single non-overlapping file may be moved down without a
    #: rewrite. Read-aware routers refine this per file via
    #: :meth:`allows_trivial_move`.
    supports_trivial_move: bool = True

    #: True when :meth:`route_up_key` returns False unconditionally and
    #: without side effects (classic compact-down behaviour). The merge
    #: skips the per-record routing call entirely for such routers — one
    #: method invocation per record is measurable against the little
    #: work the merge loop does.
    never_routes_up: bool = False

    def allows_trivial_move(self, table: SSTable) -> bool:
        """Per-file trivial-move veto; defaults to the class-wide flag."""
        return self.supports_trivial_move

    def begin_job(
        self,
        upper_level: int,
        lower_level: int,
        upper_lo: bytes,
        upper_hi: bytes,
        upper_budget_bytes: int,
        pull_budget_bytes: int = 0,
    ) -> None:
        """Hook called once per compaction job before routing starts.

        ``upper_budget_bytes`` is how much data the upper level can
        retain after this job without exceeding its size target — the
        level-sizing constraint §4.3 says the placer must respect.
        ``pull_budget_bytes`` is the stricter allowance for records
        *rising* from the lower level: pulls add net-new bytes to the
        upper level, so they are only granted genuine headroom below the
        target (retentions merely keep bytes that were already there).
        """

    @abc.abstractmethod
    def route_up_key(
        self, user_key: bytes, kind_code: int, encoded_size: int, source_level: int
    ) -> bool:
        """True to retain/pull the record in/to the upper level.

        Asked once per surviving (newest) version. ``kind_code`` is the
        wire code (0 = DELETE, 1 = PUT), ``encoded_size`` the record's
        full on-disk size and ``source_level`` the level it was read
        from — the merge never materializes a Record.
        """

    def clock_value_fn(self):
        """Optional key -> CLOCK value function for output file scoring."""
        return None


class CompactDownRouter(MergeRouter):
    """Classic LSM behaviour: every record moves to the lower level."""

    supports_trivial_move = True
    never_routes_up = True

    def route_up_key(
        self, user_key: bytes, kind_code: int, encoded_size: int, source_level: int
    ) -> bool:
        return False


@dataclass
class CompactionStats:
    """Cumulative compaction accounting (feeds Fig. 12)."""

    compactions: int = 0
    trivial_moves: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    records_in: int = 0
    records_out: int = 0
    records_pinned: int = 0
    records_pulled_up: int = 0
    tombstones_dropped: int = 0
    shadowed_dropped: int = 0
    per_level_write_bytes: dict[int, int] = field(default_factory=dict)

    def note_level_write(self, level: int, n_bytes: int) -> None:
        self.per_level_write_bytes[level] = self.per_level_write_bytes.get(level, 0) + n_bytes


@dataclass
class CompactionJob:
    """One planned compaction, shape-agnostic.

    ``style`` is one of:

    * ``"trivial-move"`` — re-parent ``upper_inputs[0]`` one level down
      without I/O (leveled shapes only);
    * ``"leveled"`` — merge upper inputs with the overlapping lower
      files into disjoint output files at both levels;
    * ``"tiered"`` — merge the upper inputs among themselves (no lower
      inputs, ``[upper_lo, upper_hi]`` covering all of them) and append
      the output as one new sorted run at the lower level;
      ``upper_level == lower_level`` marks an in-place run consolidation
      (tiering's bottom level), which routes nothing.

    Both merge styles run the same merge; they differ in how outputs on
    a run-stacked level are installed (one run per file vs one run).
    """

    style: str
    upper_level: int
    lower_level: int
    upper_inputs: list[SSTable]
    lower_inputs: list[SSTable]
    upper_lo: bytes
    upper_hi: bytes
    #: Whether tombstones may be dropped from the job's output (true only
    #: when nothing older than the output can exist below it).
    drop_tombstones: bool = False


class CompactionExecutor:
    """Plans (via its strategy) and runs compactions against one manifest."""

    #: Safety cap on jobs per maintenance call; prevents a pathological
    #: pinning threshold from spinning forever (the paper's Fig. 14
    #: "threshold too high" regime degrades throughput instead).
    MAX_JOBS_PER_CALL = 64

    def __init__(
        self,
        backend: StorageBackend,
        manifest: LevelManifest,
        layout: StorageLayout,
        options: DBOptions,
        cache: BlockCache,
        picker: CompactionPicker,
        router: MergeRouter,
        *,
        strategy=None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._backend = backend
        self._manifest = manifest
        self._layout = layout
        self._options = options
        self._cache = cache
        self._picker = picker
        self._router = router
        if strategy is None:
            from repro.lsm.strategy import make_strategy

            strategy = make_strategy(options)
        self.strategy = strategy
        self.stats = CompactionStats()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NOOP_TRACER

    # Public read-only views for strategy objects (which receive the
    # executor and must not reach into name-mangled internals).
    @property
    def manifest(self) -> LevelManifest:
        return self._manifest

    @property
    def options(self) -> DBOptions:
        return self._options

    @property
    def layout(self) -> StorageLayout:
        return self._layout

    @property
    def picker(self) -> CompactionPicker:
        return self._picker

    @property
    def router(self) -> MergeRouter:
        return self._router

    def note_level_write(self, level: int, n_bytes: int) -> None:
        """Account output bytes landing at ``level`` (flush or compaction)."""
        self.stats.note_level_write(level, n_bytes)
        self.metrics.counter(
            "compaction.write_bytes",
            level=level,
            tier=self._layout.tier_for_level(level).name,
        ).inc(n_bytes)

    # ------------------------------------------------------------------
    # Scheduling (delegated to the strategy)
    # ------------------------------------------------------------------
    def hot_bytes(self, level: int) -> int:
        """Bytes at ``level`` in files carrying a positive popularity score."""
        return sum(
            table.size_bytes
            for table in self._manifest.files(level)
            if table.popularity_score > 0
        )

    def compaction_score(self, level: int) -> float:
        """> 1.0 means the level needs compaction (strategy-defined)."""
        return self.strategy.score(self, level)

    def pick_compaction_level(self) -> int | None:
        """The level with the highest score >= 1.0, if any."""
        return self.strategy.pick_level(self)

    def maybe_compact(self) -> int:
        """Run compactions until all levels are within target; job count."""
        jobs = 0
        while jobs < self.MAX_JOBS_PER_CALL:
            level = self.pick_compaction_level()
            if level is None:
                break
            self.run_job(level)
            jobs += 1
        return jobs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_job(self, level: int) -> None:
        """Plan (strategy) and execute one compaction of ``level``."""
        job = self.strategy.plan_job(self, level)
        if job is None:
            return
        self.execute(job)

    def execute(self, job: CompactionJob) -> None:
        """Run a planned :class:`CompactionJob`: a trivial move or a merge."""
        if job.style == "trivial-move":
            # Same tier, nothing to merge: re-parent the file without I/O.
            table = job.upper_inputs[0]
            self._manifest.remove_file(job.upper_level, table)
            self._manifest.add_file(job.lower_level, table)
            self.stats.trivial_moves += 1
            self.metrics.counter("compaction.trivial_moves", level=job.upper_level).inc()
            self.tracer.instant(
                "trivial_move", level=job.upper_level, file_id=table.file_id,
                bytes=table.size_bytes,
            )
            return
        if job.style not in ("leveled", "tiered"):
            raise CompactionError(f"unknown compaction job style {job.style!r}")
        upper_tier = self._layout.tier_for_level(job.upper_level)
        lower_tier = self._layout.tier_for_level(job.lower_level)
        devices = {id(t.device): t.device for t in (upper_tier, lower_tier)}.values()
        span = self.tracer.span(
            "compaction",
            level=job.upper_level,
            tier=upper_tier.name,
            lower_tier=lower_tier.name,
            inputs=len(job.upper_inputs) + len(job.lower_inputs),
        )
        busy_before = sum(device.stats.busy_usec for device in devices)
        with span:
            self._compact(job)
            # Background I/O returns zero foreground latency, so the
            # simulated clock does not move during a compaction; the
            # span's duration is instead the device service time the job
            # consumed — the quantity Fig. 10/12 attribute.
            span.set_duration(
                sum(device.stats.busy_usec for device in devices) - busy_before
            )

    def _compact(self, job: CompactionJob) -> None:
        """Budget the job, merge its inputs, install the outputs."""
        upper_level, lower_level = job.upper_level, job.lower_level
        route_up_key = None
        # An in-place consolidation (tiering's bottom level) has no upper
        # level to retain records in: no budget, no begin_job, no routing.
        if upper_level != lower_level:
            # The upper level may hold its target plus the pin reserve;
            # the job's pinning budget is whatever of that allowance
            # remains once the inputs are gone. Levels beyond the
            # allowance pin nothing until cold data drains, so compaction
            # always converges. Pulls draw on the same budget (the router
            # caps them; a job without lower inputs has nothing to pull).
            input_bytes = sum(table.size_bytes for table in job.upper_inputs)
            remaining = self._manifest.level_bytes(upper_level) - input_bytes
            target = self._options.level_target_bytes(upper_level)
            allowance = int(target * (1.0 + self._options.pin_reserve_fraction))
            upper_budget = max(0, allowance - remaining)
            self._router.begin_job(
                upper_level, lower_level, job.upper_lo, job.upper_hi,
                upper_budget, upper_budget,
            )
            if not self._router.never_routes_up:
                route_up_key = self._router.route_up_key

        new_upper, new_lower = self._merge_spans(job, route_up_key)

        manifest = self._manifest
        for table in job.upper_inputs:
            manifest.remove_file(upper_level, table)
        for table in job.lower_inputs:
            manifest.remove_file(lower_level, table)
        for level, tables in ((upper_level, new_upper), (lower_level, new_lower)):
            # The one style-dependent step: on a run-stacked level a
            # tiered job's outputs form one new sorted run, a leveled
            # job's one run per file (mutually disjoint either way).
            if job.style == "tiered" and tables and manifest.is_run_stacked(level):
                manifest.add_run(level, tables)
            else:
                for table in tables:
                    manifest.add_file(level, table)
        for table in job.upper_inputs + job.lower_inputs:
            self._cache.invalidate_file(table.file_id)
            self._backend.delete_file(table.file)

        self.stats.compactions += 1
        self.metrics.counter("compaction.count", level=upper_level).inc()

    def _scan_inputs(self, tables: list[SSTable], level: int, columns, bufs: list) -> None:
        """Append every record of ``tables`` to the parallel span arrays.

        No Record objects exist: each table contributes its
        key/seqno/kind/start/end ``columns`` plus one buffer reference
        per record (``bufs`` is per-record so the merge can slice
        without tracking run boundaries).
        """
        read_counter = self.metrics.counter("compaction.read_bytes", level=level)
        for table in tables:
            buf, count, _ = table.read_all_spans(*columns, foreground=False)
            self.stats.bytes_read += table.size_bytes
            self.stats.records_in += count
            read_counter.inc(table.size_bytes)
            bufs.extend([buf] * count)

    def _merge_spans(
        self, job: CompactionJob, route_up_key
    ) -> tuple[list[SSTable], list[SSTable]]:
        """The merge: shadow, route, range-check and emit each survivor.

        This is the *movement* primitive, in the encoded domain — no
        Record objects anywhere. Inputs are scanned as parallel span
        arrays; ordering is an index argsort (two stable C sorts giving
        the unique internal-key order, as seqnos are globally unique);
        origin recovery is positional (upper-table records occupy the
        array prefix); and survivors are re-emitted as byte slices of the
        input files. ``route_up_key`` is None when nothing may be routed
        up. Returns the new (upper, lower) tables.
        tests/lsm/reference_merge.py overrides this method with the
        record-domain specification it is proven against.
        """
        upper_level, lower_level = job.upper_level, job.lower_level
        upper_lo, upper_hi = job.upper_lo, job.upper_hi
        drop_tombstones = job.drop_tombstones
        columns = keys, seqnos, kinds, starts, ends = [], [], [], [], []
        bufs: list = []
        self._scan_inputs(job.upper_inputs, upper_level, columns, bufs)
        n_upper = len(keys)
        pinned_counter = self.metrics.counter("compaction.records", kind="pinned")
        pulled_counter = None
        # Keyed on the style, not on ``lower_inputs``, only for the
        # registry: a leveled job has always reported its lower-level
        # read and pull-up series, at zero when it had nothing to read.
        if job.style == "leveled":
            self._scan_inputs(job.lower_inputs, lower_level, columns, bufs)
            pulled_counter = self.metrics.counter("compaction.records", kind="pulled_up")
        dropped_counter = self.metrics.counter("compaction.records", kind="tombstone_dropped")

        order = list(range(len(keys)))
        order.sort(key=seqnos.__getitem__, reverse=True)
        order.sort(key=keys.__getitem__)

        stats = self.stats
        upper_writer = _OutputWriter(self, upper_level)
        lower_writer = _OutputWriter(self, lower_level)
        add_upper = upper_writer.add_encoded
        add_lower = lower_writer.add_encoded
        last_key: bytes | None = None
        for idx in order:
            # Shadowing: the first record per user key (internal order)
            # is the newest version; older ones are dropped here.
            user_key = keys[idx]
            if user_key == last_key:
                stats.shadowed_dropped += 1
                continue
            last_key = user_key
            start = starts[idx]
            end = ends[idx]
            kind_code = kinds[idx]
            # Up-routing outside the upper input range would violate
            # the level's disjointness (§4.4; L0 overlaps anyway).
            if (
                route_up_key is not None
                and route_up_key(
                    user_key, kind_code, end - start,
                    upper_level if idx < n_upper else lower_level,
                )
                and (upper_level == 0 or upper_lo <= user_key <= upper_hi)
            ):
                if idx < n_upper:
                    stats.records_pinned += 1
                    pinned_counter.inc()
                else:
                    stats.records_pulled_up += 1
                    pulled_counter.inc()
                add_upper(user_key, seqnos[idx], kind_code, bufs[idx], start, end)
                continue
            if drop_tombstones and kind_code == 0:
                stats.tombstones_dropped += 1
                dropped_counter.inc()
                continue
            add_lower(user_key, seqnos[idx], kind_code, bufs[idx], start, end)
        return upper_writer.finish(), lower_writer.finish()

    def make_builder(self, level: int) -> SSTableBuilder:
        """A builder writing to ``level``'s tier with router-driven scoring."""
        return SSTableBuilder(
            self._backend,
            self._layout.tier_for_level(level),
            block_bytes=self._options.block_bytes,
            target_file_bytes=self._options.target_file_bytes,
            bits_per_key=self._options.bits_per_key,
            clock_value_fn=self._router.clock_value_fn(),
            score_exponent=self._options.score_exponent,
        )


class _OutputWriter:
    """Rotates SSTable builders at the target file size for one level."""

    def __init__(self, executor: CompactionExecutor, level: int) -> None:
        self._executor = executor
        self._level = level
        self._builder: SSTableBuilder | None = None
        self._tables: list[SSTable] = []

    def add_encoded(
        self, key: bytes, seqno: int, kind_code: int, buf, start: int, end: int
    ) -> None:
        """Emit one record given as an encoded span of an input file.

        This is the per-record body of the merge — the hottest loop in
        compaction — so :meth:`SSTableBuilder.add_encoded` and
        :meth:`DataBlockBuilder.add_span` are inlined here: one call
        frame per record instead of three. Every side effect and its
        order match the layered path exactly (the merge equivalence
        tests pin the output files byte for byte).
        """
        builder = self._builder
        if builder is None:
            builder = self._builder = self._executor.make_builder(self._level)
        if builder._smallest is None:
            builder._smallest = key
        builder._largest = key
        # DataBlockBuilder.add_span, inlined (span coalescing included).
        block = builder._block
        if block._first_key is None:
            block._first_key = key
        block._last_key = key
        block._last_inv = MAX_SEQNO - seqno
        block._offsets.append(block._position)
        parts = block._parts
        if parts:
            tail = parts[-1]
            if type(tail) is list and tail[0] is buf and tail[2] == start:
                tail[2] = end
            else:
                parts.append([buf, start, end])
        else:
            parts.append([buf, start, end])
        size = end - start
        block._position += size
        # 4 = the per-record u32 restart-offset cost (block._OFFSET.size).
        block._estimated = block_estimated = block._estimated + 4 + size
        # SSTableBuilder.add_encoded bookkeeping, inlined.
        builder._keys.append(key)
        builder._entry_count += 1
        if kind_code == 0:
            builder._tombstones += 1
        if seqno > builder._max_seqno:
            builder._max_seqno = seqno
        clock_value_fn = builder._clock_value_fn
        if clock_value_fn is not None:
            clock = float(clock_value_fn(key))
            if builder._score_exponent == 3:
                builder._score += clock * clock * clock
            else:
                builder._score += clock ** builder._score_exponent
        if block_estimated >= block.target_bytes:
            builder._flush_block()
        self._executor.stats.records_out += 1
        if builder._data_bytes + builder._block._estimated >= builder.target_file_bytes:
            self._finish_current()

    def _finish_current(self) -> None:
        assert self._builder is not None
        table, _ = self._builder.finish(foreground=False)
        self._executor.stats.bytes_written += table.size_bytes
        self._executor.note_level_write(self._level, table.size_bytes)
        self._tables.append(table)
        self._builder = None

    def finish(self) -> list[SSTable]:
        if self._builder is not None and self._builder.entry_count > 0:
            self._finish_current()
        return self._tables
