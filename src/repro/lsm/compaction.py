"""Compaction: pluggable policies over one shared executor.

The executor is shared by every system in the reproduction; behaviour is
specialized through two policy axes (from the design space of Sarkar et
al., arXiv:2202.04522 — see docs/COMPACTION.md) plus the record-routing
seam the paper turns:

* a :class:`~repro.lsm.strategy.CompactionStrategy` — the *shape* axis —
  decides how runs are arranged per level (leveling, tiering with run
  stacks, lazy-leveling), when a level is over-full, and plans whole
  compaction jobs;
* a :class:`CompactionPicker` — the *picking* axis, one per system —
  chooses *which SST file* a partial (leveled) compaction takes from an
  over-full level (classic RocksDB: largest file; PrismDB §4.3: the file
  with the lowest popularity score); and
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
check, emit — for leveled and tiered jobs alike; a merge that only
moves its one input adopts the input's bytes instead of emitting. A
tiered job is a leveled job without lower inputs whose range covers the
whole level; the styles differ only in how retained outputs are installed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from operator import and_, attrgetter, itemgetter, lt, ne, neg, not_, sub

from repro.errors import CompactionError
from repro.lsm.block_cache import BlockCache
from repro.lsm.layout import StorageLayout
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTable, SSTableBuilder, plan_files
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
        # (size, -file_id) decorated at C speed: an attrgetter key cannot
        # negate. Ids are unique, so a table is never compared.
        ids = map(neg, map(attrgetter("file.file_id"), files))
        return [max(zip(map(attrgetter("size_bytes"), files), ids, files))[2]]


class MergeRouter(abc.ABC):
    """Decides, per merged record, whether it stays in the upper level.

    The executor makes one :meth:`route_up_keys` call per job, after
    :meth:`begin_job`; :meth:`route_up_key` is the one method a router
    must define.
    """

    #: Whether a single non-overlapping file may be moved down without a
    #: rewrite. Read-aware routers refine this per file via
    #: :meth:`allows_trivial_move`.
    supports_trivial_move: bool = True

    #: True when :meth:`route_up_key` returns False unconditionally and
    #: without side effects (classic compact-down behaviour). The merge
    #: does not consult such routers at all.
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

    def route_up_keys(
        self,
        user_keys: list[bytes],
        kind_codes: list[int],
        encoded_sizes: list[int],
        source_levels: list[int],
    ) -> list[bool] | None:
        """The verdicts for all of a job's survivors: the executor's one call.

        The columns are parallel and in key order. Returns one
        :meth:`route_up_key` verdict per survivor, or None for "nothing
        routes up". The default asks :meth:`route_up_key` once per
        survivor in that order — routers charge budgets as they answer,
        so the order is part of the contract. Override only to answer a
        whole job at once, leaving every counter as this loop would.
        """
        return list(map(self.route_up_key, user_keys, kind_codes, encoded_sizes, source_levels))

    def clock_value_fn(self):
        """Optional key -> CLOCK value function for output file scoring."""
        return None

    def clock_values_fn(self):
        """:meth:`clock_value_fn` over a key list: what the builders call,
        once per output file. Override when the source has a bulk read."""
        per_key = self.clock_value_fn()
        return None if per_key is None else partial(map, per_key)


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


def merge_order(keys: list[bytes], seqnos: list[int]) -> list[int]:
    """Argsort of the records into internal-key order (key asc, seqno desc).

    Two stable C sorts; the order is unique as seqnos are globally unique.
    """
    order = list(range(len(keys)))
    order.sort(key=seqnos.__getitem__, reverse=True)
    order.sort(key=keys.__getitem__)
    return order


def newest_versions(order: list[int], keys: list[bytes]) -> list[int]:
    """Shadowing: keep, of ``order``, the first (newest) record per user key."""
    sorted_keys = list(map(keys.__getitem__, order))
    return list(compress(order, chain((True,), map(ne, sorted_keys, sorted_keys[1:]))))


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
        router = None
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
                router = self._router

        new_upper, new_lower = self._merge_spans(job, router)

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
            self._cache.invalidate_file(table.file_id, table.block_offsets())
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
        self, job: CompactionJob, router: MergeRouter | None
    ) -> tuple[list[SSTable], list[SSTable]]:
        """The merge: scan, sort, shadow, route, range-check, emit.

        This is the *movement* primitive, in the encoded domain and in
        bulk: a few passes per job and per block, no Record object and
        no frame per record. Inputs are scanned as parallel span arrays
        (upper-table records occupy the prefix, which is how origin is
        recovered); survivors are routed by one
        :meth:`MergeRouter.route_up_keys` call (``router`` is None when
        nothing may route up) and re-emitted as byte slices of the
        input files, each output stream cut into files and blocks by
        :func:`plan_files` — unless the job only moves its one input,
        which :meth:`SSTableBuilder.adopt` then writes again whole.
        Returns the new (upper, lower) tables.
        tests/lsm/reference_merge.py overrides this method with the
        per-record specification it is proven against.
        """
        upper_level, lower_level = job.upper_level, job.lower_level
        columns = keys, seqnos, kinds, starts, ends, hashes = [], [], [], [], [], []
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

        # One input whose keys strictly ascend is in merge order with one
        # version per key: a move, whose columns are its survivors' own.
        move = len(job.upper_inputs) == 1 and not job.lower_inputs and all(map(lt, keys, keys[1:]))
        if move:
            survivors, chunks, sizes = range(n_upper), None, list(map(sub, ends, starts))
        else:
            survivors = newest_versions(merge_order(keys, seqnos), keys)
            chunks = [bufs[idx][starts[idx] : ends[idx]] for idx in survivors]
            keys, seqnos, kinds, sizes, hashes = (
                list(map(keys.__getitem__, survivors)),
                list(map(seqnos.__getitem__, survivors)),
                list(map(kinds.__getitem__, survivors)),
                list(map(len, chunks)),
                list(map(hashes.__getitem__, survivors)),
            )
        stats = self.stats
        stats.shadowed_dropped += len(bufs) - len(survivors)

        n = len(survivors)
        routed = None
        if router is not None:
            levels = [upper_level if idx < n_upper else lower_level for idx in survivors]
            routed = router.route_up_keys(keys, kinds, sizes, levels)
        if routed is None:
            upper, sinking = [], repeat(True)
        else:
            if upper_level != 0:
                # Up-routing outside the upper input range would violate
                # the level's disjointness (§4.4; L0 overlaps anyway).
                # Asked after the router, whose bookkeeping has then
                # counted the record.
                lo, hi = job.upper_lo, job.upper_hi
                routed = [up and lo <= key <= hi for up, key in zip(routed, keys)]
            upper = list(compress(range(n), routed))
            sinking = map(not_, routed)
        if job.drop_tombstones:
            sinking = map(and_, sinking, kinds)  # kind code 0 = DELETE
        lower = list(compress(range(n), sinking))
        pinned = sum(map(n_upper.__gt__, map(survivors.__getitem__, upper)))
        stats.records_pinned += pinned
        pinned_counter.inc(pinned)
        stats.records_pulled_up += len(upper) - pinned
        if pulled_counter is not None:
            pulled_counter.inc(len(upper) - pinned)
        dropped = n - len(upper) - len(lower)
        stats.tombstones_dropped += dropped
        dropped_counter.inc(dropped)
        stats.records_out += len(upper) + len(lower)

        if move and len(lower) == n:
            # Every record sinks: the builder adopts the input when a
            # rebuild would change only its footer.
            builder = self.make_builder(lower_level)
            adopted = builder.adopt(job.upper_inputs[0], keys, seqnos, kinds, sizes)
            if adopted is not None:
                table, _ = adopted
                stats.bytes_written += table.size_bytes
                self.note_level_write(lower_level, table.size_bytes)
                return [], [table]
        if chunks is None:
            chunks = [buf[start:end] for buf, start, end in zip(bufs, starts, ends)]
        # The survivors' columns, in ``add_encoded_blocks`` argument order.
        columns = keys, seqnos, kinds, chunks, sizes, hashes

        # File ids, device write order and manifest tie-breaks are
        # simulated state, so the files of the two output streams are
        # created in the order a record-at-a-time merge would close
        # them: by the merge position of the record that fills each
        # file, then the two trailing partial files, upper first.
        new_upper: list[SSTable] = []
        new_lower: list[SSTable] = []
        files = []
        options = self._options
        for level, positions, tables in (
            (upper_level, upper, new_upper), (lower_level, lower, new_lower)
        ):
            stream = columns
            if len(positions) < n:
                stream = [list(map(column.__getitem__, positions)) for column in columns]
            stream_sizes = stream[4]
            closed, trailing = plan_files(
                stream_sizes, options.block_bytes, options.target_file_bytes
            )
            start = 0
            for block_ends in closed:
                files.append((positions[block_ends[-1] - 1], level, tables, stream, start, block_ends))
                start = block_ends[-1]
            if trailing:
                files.append((n, level, tables, stream, start, trailing))
        files.sort(key=itemgetter(0))
        for _, level, tables, stream, start, block_ends in files:
            builder = self.make_builder(level)
            builder.add_encoded_blocks(*stream, start, block_ends)
            table, _ = builder.finish(foreground=False)
            stats.bytes_written += table.size_bytes
            self.note_level_write(level, table.size_bytes)
            tables.append(table)
        return new_upper, new_lower

    def make_builder(self, level: int) -> SSTableBuilder:
        """A builder writing to ``level``'s tier with router-driven scoring."""
        return SSTableBuilder(
            self._backend,
            self._layout.tier_for_level(level),
            block_bytes=self._options.block_bytes,
            target_file_bytes=self._options.target_file_bytes,
            bits_per_key=self._options.bits_per_key,
            clock_values_fn=self._router.clock_values_fn(),
        )
