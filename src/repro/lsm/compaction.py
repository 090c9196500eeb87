"""Compaction: one executor, two policy seams, one shape parameter.

The executor is shared by every system in the reproduction. Its design
space (Sarkar et al., arXiv:2202.04522 — see docs/COMPACTION.md) has
three axes here:

* the *shape* — which levels may stack more than one sorted run
  (:meth:`LevelManifest.is_run_stacked`; L0 for leveling, L0..bottom
  for tiering, L0..bottom-1 for lazy-leveling). It is data, not code:
  :meth:`CompactionExecutor.compaction_score` and
  :meth:`CompactionExecutor.plan_job` read it to decide when a level is
  over-full and whether a job merges a whole level into a new run
  (*tiered*) or picked files into the overlap below (*leveled*);
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
it. Jobs out of a run-stacked level take every run of it, so the rule
holds there trivially: every version of a key at the upper level
participates in the job.

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
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat
from operator import and_, attrgetter, itemgetter, lt, ne, neg, not_, sub
from typing import Callable, NamedTuple

from repro.errors import CompactionError
from repro.lsm.block_cache import BlockCache
from repro.lsm.layout import StorageLayout
from repro.lsm.options import DBOptions
from repro.lsm.sstable import SSTable, SSTableBuilder, plan_files
from repro.lsm.version import LevelManifest
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

    #: True when :meth:`route_up_key` returns False unconditionally and
    #: without side effects (classic compact-down behaviour). The merge
    #: does not consult such routers at all.
    never_routes_up: bool = False

    def allows_trivial_move(self, table: SSTable) -> bool:
        """Whether ``table``, alone and overlapping nothing below, may
        move down a level without a rewrite (default: always)."""
        return True

    def begin_job(
        self,
        upper_level: int,
        lower_level: int,
        upper_lo: bytes,
        upper_hi: bytes,
        upper_budget_bytes: int,
    ) -> None:
        """Hook called once per compaction job before routing starts.

        ``upper_budget_bytes`` is how much data the upper level can
        retain after this job without exceeding its size target — the
        level-sizing constraint §4.3 says the placer must respect. It
        covers retained records and records pulled up from the lower
        level alike.
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

    never_routes_up = True

    def route_up_key(
        self, user_key: bytes, kind_code: int, encoded_size: int, source_level: int
    ) -> bool:
        return False


def tally(counts: dict, key, amount: int = 1) -> None:
    """Add ``amount`` to ``counts[key]``; a zero amount still creates the key."""
    counts[key] = counts.get(key, 0) + amount


@dataclass
class CompactionStats:
    """Cumulative compaction accounting (feeds Fig. 12).

    The dicts are what the ``compaction.*`` registry series read
    (:meth:`CompactionExecutor.bind_observability`): a series exists
    once its key does.
    """

    bytes_written: int = 0
    records_in: int = 0
    records_out: int = 0
    shadowed_dropped: int = 0
    #: Merges and trivial moves, by the job's upper level.
    per_level_merges: dict[int, int] = field(default_factory=dict)
    per_level_trivial_moves: dict[int, int] = field(default_factory=dict)
    #: Merge input bytes by the level read; a leveled job reads its
    #: lower level even when it has no lower input.
    per_level_read_bytes: dict[int, int] = field(default_factory=dict)
    #: Table bytes written by level, flushes included.
    per_level_write_bytes: dict[int, int] = field(default_factory=dict)
    #: Surviving records by outcome: ``pinned``, ``tombstone_dropped``
    #: and, from the first leveled job on, ``pulled_up``.
    records: dict[str, int] = field(default_factory=dict)

    @property
    def compactions(self) -> int:
        return sum(self.per_level_merges.values())

    @property
    def trivial_moves(self) -> int:
        return sum(self.per_level_trivial_moves.values())

    @property
    def bytes_read(self) -> int:
        return sum(self.per_level_read_bytes.values())


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


class JobRecord(NamedTuple):
    """One background job in :attr:`CompactionExecutor.jobs`.

    A flush has no input file and writes at level 0, which is both its
    upper and its lower level; a trivial move's input is the file it
    re-parents, and it writes no table.
    """

    #: ``"flush"``, ``"trivial-move"`` or the merge's style
    #: (``"leveled"``, ``"tiered"``).
    kind: str
    #: Simulated time the job started at (the clock does not move during it).
    start_usec: float
    #: Device service time the job consumed, on every device.
    busy_usec: float
    upper_level: int
    upper_tier: str
    lower_level: int
    lower_tier: str
    #: Input files and their bytes (a flush: the memtable's encoded records).
    inputs: int
    input_bytes: int
    #: Output table bytes installed at the upper and at the lower level.
    upper_write_bytes: int
    lower_write_bytes: int


def merge_order(keys: list[bytes], seqnos: array) -> list[int]:
    """Argsort of the records into internal-key order (key asc, seqno desc).

    Two stable C sorts; the order is unique as seqnos are globally unique.
    """
    order = list(range(len(keys)))
    order.sort(key=seqnos.__getitem__, reverse=True)
    order.sort(key=keys.__getitem__)
    return order


def newest_versions(order: list[int], keys: list[bytes]) -> array:
    """Shadowing: keep, of ``order``, the first (newest) record per user
    key, as an unboxed position column."""
    sorted_keys = list(map(keys.__getitem__, order))
    return array("I", compress(order, chain((True,), map(ne, sorted_keys, sorted_keys[1:]))))


def gatherer(positions) -> Callable:
    """A function from a column to ``column[p]`` for each ``p`` of
    ``positions``, in the column's own type: a list or bytearray stays
    one and an array keeps its typecode.

    One ``itemgetter`` serves every column: a C pass per column, where
    mapping an array's slot-wrapper ``__getitem__`` costs a call each.
    """
    if len(positions) > 1:
        pick = itemgetter(*positions)
    else:  # an itemgetter returns a tuple only for two or more
        def pick(column):
            return [column[p] for p in positions]

    def gather(column):
        if type(column) is array:
            return array(column.typecode, pick(column))
        return type(column)(pick(column))

    return gather


class CompactionExecutor:
    """Plans and runs compactions against one manifest.

    The compaction shape reaches the executor only as the manifest's
    run-stacked levels (:meth:`LevelManifest.is_run_stacked`): scoring
    and planning read that set, and nothing else about the shape.
    """

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
    ) -> None:
        self._backend = backend
        self._manifest = manifest
        self._layout = layout
        self._options = options
        self._cache = cache
        self._picker = picker
        self._router = router
        self.stats = CompactionStats()
        #: The background-job log: None (off, the default) or a list that
        #: every flush, trivial move and merge appends one
        #: :class:`JobRecord` to. Off costs one ``is None`` test per job.
        self.jobs: list[JobRecord] | None = None

    def bind_observability(self, registry) -> None:
        """Register the ``compaction.*`` series as views of :attr:`stats`."""
        stats = self.stats
        registry.count_views(
            "compaction.write_bytes", stats.per_level_write_bytes,
            level=str, tier=lambda level: self._layout.tier_for_level(level).name,
        )
        registry.count_views("compaction.read_bytes", stats.per_level_read_bytes, level=str)
        registry.count_views("compaction.count", stats.per_level_merges, level=str)
        registry.count_views("compaction.trivial_moves", stats.per_level_trivial_moves, level=str)
        registry.count_views("compaction.records", stats.records, kind=str)

    def note_level_write(self, level: int, n_bytes: int) -> None:
        """Account output bytes landing at ``level`` (flush or compaction)."""
        tally(self.stats.per_level_write_bytes, level, n_bytes)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def compaction_score(self, level: int) -> float:
        """Urgency of compacting ``level``; >= 1.0 means it needs it.

        Every shape fires on the same two rules (RocksDB's). A
        run-stacked level — L0 in every shape — counts its sorted runs
        against ``l0_compaction_trigger``, a stacked bottom included,
        whose in-place consolidation shrinks only its stack. A leveled
        bottom never compacts down; any other leveled level weighs bytes
        against its target, hot (positively-scored) bytes discounted up
        to the pin reserve: retained popular data occupies the level
        without re-triggering compaction of it (§4.3's level-sizing
        accommodation).
        """
        manifest, options = self._manifest, self._options
        if manifest.is_run_stacked(level):
            return manifest.run_count(level) / options.l0_compaction_trigger
        if level == manifest.num_levels - 1:
            return 0.0
        target = options.level_target_bytes(level)
        reserve = int(target * options.pin_reserve_fraction)
        discounted = min(manifest.hot_bytes(level), reserve)
        return (manifest.level_bytes(level) - discounted) / target

    def pick_compaction_level(self) -> int | None:
        """The level with the highest score >= 1.0, if any; on a tie the
        deeper level."""
        best_level, best_score = None, 1.0
        for level in range(self._manifest.num_levels):
            score = self.compaction_score(level)
            if score >= best_score:
                best_level, best_score = level, score
        return best_level

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

    def plan_job(self, level: int) -> CompactionJob | None:
        """Plan one compaction of ``level``, or None if there is nothing to do.

        Into a run-stacked level a job is *tiered*: it merges the whole
        level into one new run below, the §4.4 consistency rule's "every
        run participates" made structural. A run-stacked bottom
        consolidates in place once it stacks more than one run; a
        leveled bottom raises :class:`CompactionError`. Into a leveled
        level a job is *leveled* (or a trivial move): the upper inputs
        are all of a run-stacked level (L0 included), else the picker's
        choice, merged with the overlap below.
        """
        manifest = self._manifest
        bottom = manifest.num_levels - 1
        if not 0 <= level <= bottom:
            raise CompactionError(f"level out of range: L{level}")
        if level == bottom:
            if not manifest.is_run_stacked(level):
                raise CompactionError(f"cannot compact bottom level L{level}")
            if manifest.run_count(level) <= 1:
                return None  # already one run; nothing to consolidate
            return self._tiered_job(level, level, drop_tombstones=True)
        if manifest.is_run_stacked(level + 1):
            # Tombstones can be dropped on the way down only when the
            # output run will be the sole run of the bottom level.
            into_empty_bottom = level + 1 == bottom and manifest.file_count(bottom) == 0
            return self._tiered_job(level, level + 1, drop_tombstones=into_empty_bottom)
        if manifest.is_run_stacked(level):
            upper_inputs = list(manifest.files(level))
        else:
            upper_inputs = self._picker.pick_files(manifest, level)
        return self._leveled_job(level, upper_inputs)

    def _leveled_job(self, level: int, upper_inputs: list) -> CompactionJob | None:
        """A classic merge of ``upper_inputs`` into the overlap below."""
        if not upper_inputs:
            return None
        upper_lo = min(table.smallest_key for table in upper_inputs)
        upper_hi = max(table.largest_key for table in upper_inputs)
        lower_inputs = self._manifest.overlapping_files(level + 1, upper_lo, upper_hi)
        tier = self._layout.tier_for_level
        if (
            not lower_inputs
            and len(upper_inputs) == 1
            and self._router.allows_trivial_move(upper_inputs[0])
            and tier(level) is tier(level + 1)
        ):
            return CompactionJob(
                "trivial-move", level, level + 1, upper_inputs, [], upper_lo, upper_hi
            )
        return CompactionJob(
            "leveled", level, level + 1, upper_inputs, lower_inputs,
            upper_lo, upper_hi,
            drop_tombstones=level + 1 == self._manifest.num_levels - 1,
        )

    def _tiered_job(
        self, level: int, lower_level: int, *, drop_tombstones: bool
    ) -> CompactionJob | None:
        """A whole-level merge appended as one new run at ``lower_level``."""
        upper_inputs = list(self._manifest.files(level))
        if not upper_inputs:
            return None
        return CompactionJob(
            "tiered", level, lower_level, upper_inputs, [],
            min(table.smallest_key for table in upper_inputs),
            max(table.largest_key for table in upper_inputs),
            drop_tombstones=drop_tombstones,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_job(self, level: int) -> None:
        """Plan and execute one compaction of ``level``."""
        job = self.plan_job(level)
        if job is None:
            return
        self.execute(job)

    def execute(self, job: CompactionJob) -> None:
        """Run a planned :class:`CompactionJob`: a trivial move or a merge."""
        if self.jobs is not None:
            start, busy_before = self._backend.clock.now, self.busy_usec()
        if job.style == "trivial-move":
            # Same tier, nothing to merge: re-parent the file without I/O.
            table = job.upper_inputs[0]
            self._manifest.remove_file(job.upper_level, table)
            self._manifest.add_file(job.lower_level, table)
            tally(self.stats.per_level_trivial_moves, job.upper_level)
            new_upper = new_lower = ()
        elif job.style in ("leveled", "tiered"):
            new_upper, new_lower = self._compact(job)
        else:
            raise CompactionError(f"unknown compaction job style {job.style!r}")
        if self.jobs is not None:
            # Background I/O returns zero foreground latency, so the
            # simulated clock does not move during a job; its duration is
            # instead the device service time it consumed.
            inputs = job.upper_inputs + job.lower_inputs
            self.log_job(
                job.style, start, self.busy_usec() - busy_before,
                job.upper_level, job.lower_level,
                len(inputs), sum(table.size_bytes for table in inputs),
                sum(table.size_bytes for table in new_upper),
                sum(table.size_bytes for table in new_lower),
            )

    def busy_usec(self) -> float:
        """Device service time so far, over every tier's device: a job's
        delta includes its MANIFEST appends wherever the log lives."""
        devices = {id(tier.device): tier.device for tier in self._layout.tiers}
        return sum(device.stats.busy_usec for device in devices.values())

    def log_job(
        self, kind: str, start_usec: float, busy_usec: float, upper_level: int,
        lower_level: int, inputs: int, input_bytes: int, upper_write_bytes: int,
        lower_write_bytes: int,
    ) -> None:
        """Append one :class:`JobRecord` to :attr:`jobs` (which must be on)."""
        tier = self._layout.tier_for_level
        self.jobs.append(JobRecord(
            kind, start_usec, busy_usec, upper_level, tier(upper_level).name,
            lower_level, tier(lower_level).name, inputs, input_bytes,
            upper_write_bytes, lower_write_bytes,
        ))

    def _compact(self, job: CompactionJob) -> tuple[list[SSTable], list[SSTable]]:
        """Budget the job, merge its inputs, install the outputs.

        Returns the (upper, lower) tables it wrote.
        """
        upper_level, lower_level = job.upper_level, job.lower_level
        router = None
        # An in-place consolidation (tiering's bottom level) has no upper
        # level to retain records in: no budget, no begin_job, no routing.
        if upper_level != lower_level:
            # The upper level may hold its target plus the pin reserve;
            # the job's pinning budget is whatever of that allowance
            # remains once the inputs are gone. Levels beyond the
            # allowance pin nothing until cold data drains, so compaction
            # always converges. Pulls are meant to draw on the same budget,
            # but the router's pull counter does not see pins (DESIGN.md
            # "Known modelling quirks"); a job without lower inputs has
            # nothing to pull.
            input_bytes = sum(table.size_bytes for table in job.upper_inputs)
            remaining = self._manifest.level_bytes(upper_level) - input_bytes
            target = self._options.level_target_bytes(upper_level)
            allowance = int(target * (1.0 + self._options.pin_reserve_fraction))
            upper_budget = max(0, allowance - remaining)
            self._router.begin_job(
                upper_level, lower_level, job.upper_lo, job.upper_hi, upper_budget
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
            # The one style-dependent step: on a run-stacked level below
            # L0 a tiered job's outputs form one new sorted run; a
            # leveled job's, and every file L0 takes, one run per file
            # (mutually disjoint either way).
            if job.style == "tiered" and level and tables and manifest.is_run_stacked(level):
                manifest.add_run(level, tables)
            else:
                for table in tables:
                    manifest.add_file(level, table)
        for table in job.upper_inputs + job.lower_inputs:
            self._cache.invalidate_file(table.file_id, table.block_offsets())
            self._backend.delete_file(table.file)

        tally(self.stats.per_level_merges, upper_level)
        return new_upper, new_lower

    def _scan_inputs(self, tables: list[SSTable], level: int, columns, bufs: list) -> None:
        """Append every record of ``tables`` to the parallel span columns.

        No Record objects exist: each table contributes its
        key/seqno/kind/start/end/hash ``columns`` (a key list, a kind
        bytearray and unboxed arrays) plus one buffer reference per
        record (``bufs`` is per-record so the merge can slice without
        tracking run boundaries).
        """
        for table in tables:
            buf, count = table.read_all_spans(*columns)
            self.stats.records_in += count
            bufs.extend([buf] * count)
        tally(self.stats.per_level_read_bytes, level, sum(table.size_bytes for table in tables))

    def _merge_spans(
        self, job: CompactionJob, router: MergeRouter | None
    ) -> tuple[list[SSTable], list[SSTable]]:
        """The merge: scan, sort, shadow, route, range-check, emit.

        This is the *movement* primitive, in the encoded domain and in
        bulk: a few passes per job and per block, no Record object and
        no frame per record. Inputs are scanned as parallel span
        columns, unboxed but for the keys (upper-table records occupy
        the prefix, which is how origin is recovered); survivors are
        routed by one :meth:`MergeRouter.route_up_keys` call (``router``
        is None when nothing may route up) and re-emitted as byte slices
        of the input files, each output stream cut into files and blocks
        by :func:`plan_files` — unless the job only moves its one input,
        which :meth:`SSTableBuilder.adopt` then writes again whole. The
        slices are taken file by file as each is built, so the job's heap
        is its columns plus one output file's records.
        Returns the new (upper, lower) tables.
        tests/lsm/reference_merge.py overrides this method with the
        per-record specification it is proven against.
        """
        upper_level, lower_level = job.upper_level, job.lower_level
        keys: list[bytes] = []
        kinds = bytearray()
        seqnos, starts, ends, hashes = array("Q"), array("Q"), array("Q"), array("Q")
        columns = keys, seqnos, kinds, starts, ends, hashes
        bufs: list = []
        self._scan_inputs(job.upper_inputs, upper_level, columns, bufs)
        n_upper = len(keys)
        # Keyed on the style, not on ``lower_inputs``, only for the
        # registry: a leveled job has always reported its lower-level
        # read and pull-up series, at zero when it had nothing to read.
        leveled = job.style == "leveled"
        if leveled:
            self._scan_inputs(job.lower_inputs, lower_level, columns, bufs)

        # One input whose keys strictly ascend is in merge order with one
        # version per key: a move, whose columns are its survivors' own.
        move = len(job.upper_inputs) == 1 and not job.lower_inputs and all(map(lt, keys, keys[1:]))
        sizes = array("Q", map(sub, ends, starts))
        if move:
            survivors = array("I", range(n_upper))
        else:
            survivors = newest_versions(merge_order(keys, seqnos), keys)
            gather = gatherer(survivors)
            keys, seqnos, kinds, sizes, hashes = [
                gather(column) for column in (keys, seqnos, kinds, sizes, hashes)
            ]
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
            upper = array("I", compress(range(n), routed))
            sinking = map(not_, routed)
        if job.drop_tombstones:
            sinking = map(and_, sinking, kinds)  # kind code 0 = DELETE
        lower = array("I", compress(range(n), sinking))
        pinned = sum(map(n_upper.__gt__, map(survivors.__getitem__, upper)))
        tally(stats.records, "pinned", pinned)
        if leveled:
            tally(stats.records, "pulled_up", len(upper) - pinned)
        tally(stats.records, "tombstone_dropped", n - len(upper) - len(lower))
        stats.records_out += len(upper) + len(lower)

        if move and len(lower) == n:
            # Every record sinks: the builder adopts the input when a
            # rebuild would change only its footer.
            builder = self.make_builder(lower_level)
            table = builder.adopt(job.upper_inputs[0], keys, seqnos, kinds, sizes)
            if table is not None:
                stats.bytes_written += table.size_bytes
                self.note_level_write(lower_level, table.size_bytes)
                return [], [table]
        # The survivors' columns, in ``add_encoded_blocks`` argument order
        # but for the records' bytes: their origin in the scanned columns.
        columns = keys, seqnos, kinds, survivors, sizes, hashes

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
                gather = gatherer(positions)
                stream = [gather(column) for column in columns]
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
            # This file's records' bytes, and no other file's.
            origins = stream[3][start : block_ends[-1]]
            chunks = [bufs[i][starts[i] : ends[i]] for i in origins]
            builder = self.make_builder(level)
            builder.add_encoded_blocks(*stream[:3], chunks, *stream[4:], start, block_ends)
            table = builder.finish()
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
