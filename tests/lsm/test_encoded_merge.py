"""The engine's encoded-domain merge held against the record-domain spec.

``CompactionExecutor`` merges byte spans; ``reference_merge.py`` keeps
the record-domain merge (decode, ``merge_sorted_lists``, re-encode) as
the executable specification. This file pins the contract between them:
for every job style, compaction shape and routing outcome the two
produce *byte-identical* output files, identical manifests, and
identical compaction stats, router state and registry snapshots.
"""

import dataclasses
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_merge import ReferenceExecutor, use_reference_merge, write_per_record

from repro.common import KIB, SimClock
from repro.core.mapper import ClockDistributionMapper
from repro.core.placer import ReadAwareRouter
from repro.core.prismdb import PrismDB, PrismOptions
from repro.core.tracker import ClockTracker
from repro.lsm.block_cache import BlockCache
from repro.lsm.bloom import key_hashes
from repro.lsm.compaction import (
    CompactDownRouter,
    CompactionExecutor,
    CompactionJob,
    LargestFilePicker,
    MergeRouter,
)
from repro.lsm.db import LsmDB
from repro.lsm.layout import build_layout
from repro.lsm.options import COMPACTION_SHAPES, DBOptions
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTable, SSTableBuilder, plan_files
from repro.lsm.version import LevelManifest
from repro.obs import MetricsRegistry
from repro.storage import NVM_SPEC, StorageBackend, StorageTier


def small_options(**kwargs):
    defaults = dict(
        memtable_bytes=4 * KIB,
        target_file_bytes=4 * KIB,
        level1_target_bytes=8 * KIB,
        level_size_multiplier=4,
        block_bytes=1 * KIB,
    )
    defaults.update(kwargs)
    return DBOptions(**defaults)


class SplitKeyRouter(MergeRouter):
    """Deterministic pinning double.

    PUT records with keys below ``split`` stay in (or rise to) the upper
    level; everything else compacts down — enough to exercise the
    pinned, pulled-up, and rejected branches of the merge.
    """

    supports_trivial_move = False

    def __init__(self, split: bytes) -> None:
        self.split = split

    def route_up_key(self, user_key, kind_code, encoded_size, source_level):
        return kind_code == 1 and user_key < self.split


class SpendingRouter(MergeRouter):
    """Says yes while the job's budget lasts, and remembers what it did.

    Like the placer, it charges the budget *when it answers*, before the
    executor's range check — so a yes the executor then overrides still
    costs budget. ``state()`` exposes everything a twin must agree on.
    """

    supports_trivial_move = False

    def __init__(self) -> None:
        self.jobs: list[tuple] = []
        self.granted: list[tuple[bytes, int]] = []
        self.budget = 0

    def begin_job(self, upper_level, lower_level, upper_lo, upper_hi,
                  upper_budget_bytes):
        self.jobs.append((upper_level, lower_level, upper_lo, upper_hi,
                          upper_budget_bytes))
        self.budget = upper_budget_bytes

    def route_up_key(self, user_key, kind_code, encoded_size, source_level):
        if encoded_size > self.budget:
            return False
        self.budget -= encoded_size
        self.granted.append((user_key, source_level))
        return True

    def state(self):
        return self.jobs, self.granted, self.budget


class MergeFixture:
    """test_compaction's fixture, on the engine's merge or the spec's."""

    #: One tier by default; :class:`OnLayout` subclasses swap in another.
    LAYOUT = "NNNNN"

    def __init__(self, *, reference, router=None, options=None, stacked=()):
        self.options = options or small_options()
        self.clock = SimClock()
        self.backend = StorageBackend(self.clock)
        self.layout = build_layout(self.LAYOUT, self.options, self.clock)
        self.manifest = LevelManifest(
            self.options.num_levels, run_stacked_levels=stacked
        )
        self.router = router or CompactDownRouter()
        #: (file id, tier, bytes) of every file in creation order: ids and
        #: device writes are simulated state, so twins must agree on it.
        self.created: list[tuple[int, str, int]] = []
        create_file = self.backend.create_file

        def logging_create_file(tier, payload):
            file = create_file(tier, payload)
            self.created.append((file.file_id, tier.name, len(payload)))
            return file

        self.backend.create_file = logging_create_file
        self.executor = (ReferenceExecutor if reference else CompactionExecutor)(
            self.backend,
            self.manifest,
            self.layout,
            self.options,
            BlockCache(64 * KIB),
            LargestFilePicker(),
            self.router,
        )
        #: Each twin's own registry, bound as ``LsmDB`` binds its executor's.
        self.metrics = MetricsRegistry()
        self.executor.bind_observability(self.metrics)
        self.seqno = 0

    def add_table(self, level, keys, *, value=b"v" * 20, kind=ValueKind.PUT,
                  kind_by_key=None, block_bytes=None):
        builder = SSTableBuilder(
            self.backend,
            self.layout.tier_for_level(level),
            block_bytes=block_bytes or self.options.block_bytes,
            target_file_bytes=1 << 30,
        )
        for key in sorted(keys):
            self.seqno += 1
            record_kind = kind_by_key(key) if kind_by_key else kind
            builder.add(Record(
                key,
                self.seqno,
                record_kind,
                value if record_kind == ValueKind.PUT else b"",
            ))
        table = builder.finish()
        self.manifest.add_file(level, table)
        return table

    def merge(self, upper_level, lo, hi):
        """A leveled job as the planner would build it, via the public door."""
        lower_level = upper_level + 1
        self.executor.execute(CompactionJob(
            "leveled",
            upper_level,
            lower_level,
            list(self.manifest.files(upper_level)),
            self.manifest.overlapping_files(lower_level, lo, hi),
            lo,
            hi,
            drop_tombstones=lower_level == self.options.num_levels - 1,
        ))
        self.manifest.check_invariants()


def fingerprint(manifest, num_levels):
    """Byte-exact snapshot of every live table, per level and run, with
    the resident filter, index and key-hash column the read path uses."""
    return {
        level: [
            [
                (table.file_id, table.smallest_key, table.largest_key,
                 bytes(table.file.data),
                 table._bloom.encode() if table._bloom is not None else None,
                 (table._index_keys, table._index_offsets, table._index_lengths),
                 table._key_hashes)
                for table in run
            ]
            for run in manifest.runs(level)
        ]
        for level in range(num_levels)
    }


def router_state(router):
    """What twins' routers must agree on: a spending log or the PlacerStats."""
    if isinstance(router, SpendingRouter):
        return router.state()
    if isinstance(router, ReadAwareRouter):
        return dataclasses.asdict(router.stats)
    return None


def run_both(build, *, router_factory=None, stacked=(), options=None):
    """Run ``build(fx)`` on the spec and on the engine; return both states."""
    states = []
    for reference in (True, False):
        router = router_factory() if router_factory else None
        fx = MergeFixture(reference=reference, router=router, stacked=stacked, options=options)
        build(fx)
        states.append((
            fingerprint(fx.manifest, fx.options.num_levels),
            dataclasses.asdict(fx.executor.stats),
            fx.metrics.snapshot(),
            router_state(router),
            fx.created,
        ))
    return states


def assert_equivalent(build, **kwargs):
    """Byte-identical tables, stats, registry and router state; returns
    the engine-side fixture state for further assertions."""
    spec_state, engine_state = run_both(build, **kwargs)
    for spec_part, engine_part in zip(spec_state, engine_state):
        assert engine_part == spec_part
    return engine_state


class OnLayout:
    """Runs a class's twins on ``LAYOUT``; a subclass re-runs them on another."""

    LAYOUT = MergeFixture.LAYOUT

    @pytest.fixture(autouse=True)
    def _on_layout(self, monkeypatch):
        monkeypatch.setattr(MergeFixture, "LAYOUT", self.LAYOUT)


#: Two tiers: L0-L1 on NVM, L2 and below on TLC. An L1 -> L2 job crosses
#: the boundary, so a one-input job there is a move the engine adopts.
TWO_TIERS = "NNTTT"


class TestLeveledEquivalence(OnLayout):
    def test_plain_merge(self):
        def build(fx):
            fx.add_table(1, [f"k{i:04d}".encode() for i in range(0, 100, 2)])
            fx.add_table(2, [f"k{i:04d}".encode() for i in range(1, 100, 2)])
            fx.merge(1, b"k0000", b"k0099")

        assert_equivalent(build)

    def test_shadowed_versions(self):
        def build(fx):
            fx.add_table(2, [f"k{i:04d}".encode() for i in range(40)])
            fx.add_table(1, [f"k{i:04d}".encode() for i in range(0, 40, 2)],
                         value=b"new" * 8)
            fx.merge(1, b"k0000", b"k0039")

        assert_equivalent(build)

    def test_tombstones_kept_above_bottom(self):
        def build(fx):
            fx.add_table(2, [f"k{i:04d}".encode() for i in range(30)])
            fx.add_table(
                1,
                [f"k{i:04d}".encode() for i in range(0, 30, 3)],
                kind=ValueKind.DELETE,
            )
            fx.merge(1, b"k0000", b"k0029")

        assert_equivalent(build)

    def test_tombstones_dropped_at_bottom(self):
        def build(fx):
            bottom = fx.options.num_levels - 1
            fx.add_table(
                bottom - 1,
                [f"k{i:04d}".encode() for i in range(20)],
                kind_by_key=lambda key: (
                    ValueKind.DELETE if key[-1] % 2 else ValueKind.PUT
                ),
            )
            fx.merge(bottom - 1, b"k0000", b"k0019")

        assert_equivalent(build)

    def test_output_rotation(self):
        def build(fx):
            fx.add_table(
                1,
                [f"k{i:04d}".encode() for i in range(300)],
                value=b"v" * 30,
            )
            fx.merge(1, b"k0000", b"k0299")

        # target_file_bytes=4 KiB forces several output files; rotation
        # points must land on the same records in both paths.
        assert_equivalent(build)


class TestRoutedEquivalence(OnLayout):
    def test_pinned_records_retained(self):
        def build(fx):
            fx.add_table(1, [f"k{i:04d}".encode() for i in range(60)])
            fx.merge(1, b"k0000", b"k0059")

        assert_equivalent(
            build, router_factory=lambda: SplitKeyRouter(b"k0030")
        )

    def test_pulled_up_from_lower(self):
        def build(fx):
            fx.add_table(1, [b"k0000", b"k0059"])
            fx.add_table(2, [f"k{i:04d}".encode() for i in range(10, 50, 5)])
            fx.merge(1, b"k0000", b"k0059")

        assert_equivalent(
            build, router_factory=lambda: SplitKeyRouter(b"k0030")
        )

    def test_pinning_skips_tombstones(self):
        def build(fx):
            fx.add_table(
                1,
                [f"k{i:04d}".encode() for i in range(40)],
                kind_by_key=lambda key: (
                    ValueKind.DELETE if key[-1] % 3 == 0 else ValueKind.PUT
                ),
            )
            fx.merge(1, b"k0000", b"k0039")

        assert_equivalent(
            build, router_factory=lambda: SplitKeyRouter(b"k9999")
        )

    def test_up_route_outside_upper_range_still_sinks(self):
        # §4.4: b"x" lies outside [d, f]. The router grants it (and
        # charges its budget) before the executor's range check sends it
        # down anyway; both merges must leave the router in that state.
        def build(fx):
            fx.add_table(1, [b"d", b"f"])
            fx.add_table(2, [b"e", b"x"])
            fx.merge(1, b"d", b"f")

        tables, stats, _, (jobs, granted, budget), _ = assert_equivalent(
            build, router_factory=SpendingRouter
        )
        assert sorted(granted) == [(b"d", 1), (b"e", 2), (b"f", 1), (b"x", 2)]
        assert budget < jobs[0][4]  # b"x" was charged like the other three
        assert [t[1:3] for run in tables[1] for t in run] == [(b"d", b"f")]
        assert [t[1:3] for run in tables[2] for t in run] == [(b"x", b"x")]
        assert stats["records"]["pulled_up"] == 1  # b"e" only

    def test_l0_job_is_exempt_from_the_range_check(self):
        # L0 files overlap freely, so a record pulled from L1 may rise
        # even from outside the L0 inputs' key range.
        def build(fx):
            fx.add_table(1, [b"a", b"e", b"x"])
            fx.add_table(0, [b"d", b"f"])
            fx.merge(0, b"d", b"f")

        tables, stats, _, _, _ = assert_equivalent(
            build, router_factory=lambda: SplitKeyRouter(b"\xff")
        )
        assert stats["records"]["pulled_up"] == 3
        assert stats["records"]["pinned"] == 2
        assert tables[1] == []

    def test_in_place_consolidation_routes_nothing(self):
        # Tiering's bottom level merges its runs in place: there is no
        # upper level to retain into, so a router that would pin every
        # record is never started and never asked.
        def build(fx):
            bottom = fx.options.num_levels - 1
            fx.add_table(bottom, [f"k{i:04d}".encode() for i in range(0, 40, 2)])
            fx.add_table(
                bottom,
                [f"k{i:04d}".encode() for i in range(0, 40, 4)],
                kind=ValueKind.DELETE,
            )
            fx.add_table(bottom, [f"k{i:04d}".encode() for i in range(1, 40, 2)])
            fx.executor.execute(CompactionJob(
                "tiered", bottom, bottom, list(fx.manifest.files(bottom)), [],
                b"k0000", b"k0039", drop_tombstones=True,
            ))
            fx.manifest.check_invariants()

        bottom = small_options().num_levels - 1
        tables, stats, _, (jobs, granted, _), _ = assert_equivalent(
            build, router_factory=SpendingRouter, stacked=(bottom,)
        )
        assert jobs == [] and granted == []
        assert stats["records"] == {"pinned": 0, "tombstone_dropped": 10}  # no pulled_up
        assert len(tables[bottom]) == 1  # one consolidated run


class TestLeveledEquivalenceAcrossTiers(TestLeveledEquivalence):
    LAYOUT = TWO_TIERS


class TestRoutedEquivalenceAcrossTiers(TestRoutedEquivalence):
    LAYOUT = TWO_TIERS


def placer(hot_keys, capacity):
    """The PrismDB placer over a tracker that has read ``hot_keys`` once.

    Pinning waits for a full tracker (§4.2): below ``capacity`` keys
    every record sinks; at it, threshold 1.0 pins every tracked key.
    """
    mapper = ClockDistributionMapper()
    tracker = ClockTracker(capacity, mapper)
    for key in hot_keys:
        tracker.on_read(key, 1)
    return ReadAwareRouter(tracker, mapper, pinning_threshold=1.0)


MOVED = [f"k{i:04d}".encode() for i in range(60)]
HOT = MOVED[::3]


def reopen_cold(fx, table):
    """Swap ``table`` for its restart handle: filter and index not resident."""
    level = next(level for level, live in fx.manifest.all_files() if live is table)
    fx.manifest.remove_file(level, table)
    fx.manifest.add_file(level, SSTable.open(fx.backend, table.file))


class TestMoveEquivalence(OnLayout):
    """One-input jobs, mostly across the tier boundary, against the spec.

    The engine adopts the input when rebuilding it would change only the
    footer and rebuilds it otherwise. Either way the twins agree on table
    bytes and resident state, file ids, the create_file log,
    CompactionStats, the registry and the PlacerStats.
    """

    LAYOUT = TWO_TIERS

    @staticmethod
    def _move(level=1, *, prepare=None, hot_capacity=1_000, kind_by_key=None, options=None,
              block_bytes=None):
        """Move one table of MOVED from ``level`` down; the engine's state."""
        def build(fx):
            table = fx.add_table(level, MOVED, kind_by_key=kind_by_key, block_bytes=block_bytes)
            if prepare is not None:
                prepare(fx, table)
            fx.merge(level, MOVED[0], MOVED[-1])

        return assert_equivalent(
            build, router_factory=lambda: placer(HOT, hot_capacity), options=options
        )

    def test_every_record_sinking_adopts(self, adoptions):
        tables, _, _, placer_stats, created = self._move()
        assert adoptions == [True]
        assert placer_stats["suspended_tracker_not_full"] == len(MOVED)
        (input_id, upper_tier, _), (output_id, lower_tier, _) = created
        assert [t[0] for run in tables[2] for t in run] == [output_id]
        assert upper_tier != lower_tier

    def test_tombstones_above_the_bottom_still_adopt(self, adoptions):
        self._move(kind_by_key=lambda key: ValueKind(key[-1] % 2))
        assert adoptions == [True]

    def test_pinned_records_fall_back(self, adoptions):
        _, stats, _, placer_stats, _ = self._move(hot_capacity=len(HOT))
        assert adoptions == []  # the job never asks: not every record sinks
        assert stats["records"]["pinned"] == placer_stats["pinned"] == len(HOT)

    def test_tombstones_dropped_at_the_bottom_fall_back(self, adoptions):
        bottom = small_options().num_levels - 1
        _, stats, _, _, _ = self._move(bottom - 1, kind_by_key=lambda key: ValueKind(key[-1] % 2))
        assert adoptions == []
        assert stats["records"]["tombstone_dropped"] == len(MOVED) // 2

    def test_cold_reopened_input_adopts(self, adoptions):
        tables, _, _, _, _ = self._move(prepare=reopen_cold)
        assert adoptions == [True]
        (output,) = tables[2][0]
        assert output[-3] is not None  # its filter decoded from the input's bytes

    def test_an_input_holding_two_versions_of_a_key_merges(self, adoptions):
        # Not a move: the input's keys do not strictly ascend, so the job
        # sorts and shadows as any merge does and drops the older version.
        def build(fx):
            builder = SSTableBuilder(
                fx.backend, fx.layout.tier_for_level(1),
                block_bytes=fx.options.block_bytes, target_file_bytes=1 << 30,
            )
            for seqno, key in enumerate(MOVED, start=1):
                if key == MOVED[10]:
                    builder.add(Record(key, 1_000, ValueKind.PUT, b"newer"))
                builder.add(Record(key, seqno, ValueKind.PUT, b"v" * 20))
            fx.manifest.add_file(1, builder.finish())
            fx.merge(1, MOVED[0], MOVED[-1])

        _, stats, _, _, _ = assert_equivalent(build, router_factory=lambda: placer(HOT, 1_000))
        assert adoptions == [] and stats["shadowed_dropped"] == 1

    def test_bits_per_key_changed_across_reopen_falls_back(self, adoptions):
        self._move(prepare=reopen_cold, options=small_options(bits_per_key=12))
        assert adoptions == [False]  # the filter geometry would differ

    def test_blocks_cut_differently_fall_back(self, adoptions):
        self._move(block_bytes=512)  # the job's builder cuts 1 KiB blocks
        assert adoptions == [False]

    def test_an_input_larger_than_a_file_falls_back(self, adoptions):
        self._move(options=small_options(target_file_bytes=1 * KIB))
        assert adoptions == [False]


class AlternatingRouter(MergeRouter):
    """Keeps every third PUT up: both output streams roll several files,
    closing them at interleaved merge positions."""

    supports_trivial_move = False

    def route_up_key(self, user_key, kind_code, encoded_size, source_level):
        return kind_code == 1 and int(user_key[1:]) % 3 == 0


class TestFileCreationOrder:
    def test_interleaved_streams_create_files_in_merge_order(self):
        # File ids, device write order and manifest tie-breaks follow
        # from the order in which output files are created. A per-record
        # merge closes an upper or a lower file whenever the record it
        # just emitted fills one; the bulk emit must create the files of
        # its two streams in exactly that interleaving, then the two
        # trailing partial files, upper first.
        def build(fx):
            fx.add_table(1, [f"k{i:04d}".encode() for i in range(0, 900, 2)],
                         value=b"u" * 40)
            fx.add_table(2, [f"k{i:04d}".encode() for i in range(1, 900, 2)],
                         value=b"l" * 25)
            fx.merge(1, b"k0000", b"k0899")

        tables, stats, _, _, created = assert_equivalent(
            build, router_factory=AlternatingRouter
        )
        level_of = {
            table[0]: level for level in (1, 2) for run in tables[level] for table in run
        }
        levels = [level_of[file_id] for file_id, _, _ in created[2:]]  # after the inputs
        assert levels.count(1) >= 2 and levels.count(2) >= 2
        # Interleaved, not one stream after the other; the two trailing
        # partial files last, upper first.
        assert levels != sorted(levels) and levels != sorted(levels, reverse=True)
        assert levels[-2:] == [1, 2]
        assert stats["records"]["pinned"] > 0 and stats["records"]["pulled_up"] > 0


def _encoded_stream(value_sizes):
    """Records k000000.. (every fifth a tombstone) as one buffer of spans."""
    keys, seqnos, kinds, starts, ends, parts = [], [], [], [], [], []
    position = 0
    for index, value_size in enumerate(value_sizes):
        kind = ValueKind.DELETE if index % 5 == 4 else ValueKind.PUT
        record = Record(
            f"k{index:06d}".encode(), index + 1, kind,
            b"v" * value_size if kind is ValueKind.PUT else b"",
        )
        encoded = record.encode()
        keys.append(record.user_key)
        seqnos.append(record.seqno)
        kinds.append(int(kind))
        starts.append(position)
        position += len(encoded)
        ends.append(position)
        parts.append(encoded)
    return keys, seqnos, kinds, b"".join(parts), starts, ends


class TestCutPlan:
    """``plan_files`` + ``add_encoded_blocks`` against the per-record rules."""

    @staticmethod
    def _both(value_sizes, block_bytes, target_file_bytes):
        keys, seqnos, kinds, buf, starts, ends = _encoded_stream(value_sizes)
        outputs = []
        for bulk in (False, True):
            clock = SimClock()
            backend = StorageBackend(clock)
            tier = StorageTier("nvm", NVM_SPEC, 1 << 30, clock)

            def make_builder():
                return SSTableBuilder(
                    backend, tier, block_bytes=block_bytes,
                    target_file_bytes=target_file_bytes,
                    clock_values_fn=lambda ks: [len(k) % 3 - 1 for k in ks],
                )

            if not bulk:
                tables = write_per_record(make_builder, keys, seqnos, kinds, buf, starts, ends)
            else:
                chunks = [buf[start:end] for start, end in zip(starts, ends)]
                sizes = [end - start for start, end in zip(starts, ends)]
                closed, trailing = plan_files(sizes, block_bytes, target_file_bytes)
                tables, start = [], 0
                for block_ends in closed + ([trailing] if trailing else []):
                    builder = make_builder()
                    # Only the file's own records' bytes, as the merge passes them.
                    builder.add_encoded_blocks(
                        keys, seqnos, kinds, chunks[start : block_ends[-1]], sizes,
                        key_hashes(keys), start, block_ends,
                    )
                    tables.append(builder.finish())
                    start = block_ends[-1]
            outputs.append([bytes(table.file.data) for table in tables])
        return outputs

    @settings(max_examples=150, deadline=None)
    @given(
        value_sizes=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=120),
        block_bytes=st.integers(min_value=24, max_value=700),
        target_file_bytes=st.integers(min_value=24, max_value=3000),
    )
    # One record larger than a block; one larger than a whole file.
    @example(value_sizes=[10, 900, 10, 10], block_bytes=256, target_file_bytes=2048)
    @example(value_sizes=[10, 10, 5000, 10, 10], block_bytes=256, target_file_bytes=1024)
    # The job ends exactly on a block boundary (4 x 64-byte blocks of 2).
    @example(value_sizes=[0] * 8, block_bytes=40, target_file_bytes=10_000)
    def test_bulk_cut_is_byte_identical_to_the_per_record_rules(
        self, value_sizes, block_bytes, target_file_bytes
    ):
        per_record, bulk = self._both(value_sizes, block_bytes, target_file_bytes)
        assert bulk == per_record

    def test_a_file_can_close_in_the_middle_of_a_block(self):
        # ~30 bytes a record: the file target (100) is reached at every
        # fourth record, long before the 512-byte block would close.
        per_record, bulk = self._both([4] * 10, 512, 100)
        assert bulk == per_record and len(bulk) == 3

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=320), min_size=1, max_size=120),
        block_bytes=st.integers(min_value=24, max_value=700),
        target_file_bytes=st.integers(min_value=24, max_value=3000),
    )
    def test_every_cut_file_replans_to_itself(self, sizes, block_bytes, target_file_bytes):
        # Why a job that moves one compaction-built file finds it cut the
        # same way again (what lets the builder adopt it): the rules look
        # only at the file's own records, so cut alone it is one file
        # with the same blocks — closed if it closed, open if it was the
        # stream's trailing file.
        closed, trailing = plan_files(sizes, block_bytes, target_file_bytes)
        files = [(ends, True) for ends in closed] + ([(trailing, False)] if trailing else [])
        start = 0
        for block_ends, did_close in files:
            alone = plan_files(sizes[start : block_ends[-1]], block_bytes, target_file_bytes)
            shifted = [end - start for end in block_ends]
            assert alone == (([shifted], []) if did_close else ([], shifted))
            start = block_ends[-1]

    def test_unbounded_target_cuts_blocks_only(self):
        # The memtable flush writes one file whatever its size.
        closed, trailing = plan_files([30] * 100, 128, float("inf"))
        assert closed == [] and trailing[-1] == 100 and len(trailing) > 10


def _drive(db, *, reference):
    """Flushes + planned compactions, invariants after every job."""
    if reference:
        use_reference_merge(db)
    execute = db.executor.execute

    def checked_execute(job):
        execute(job)
        db.check_invariants()

    db.executor.execute = checked_execute
    rng = random.Random(1234)
    keys = [f"key{i:04d}".encode() for i in range(400)]
    hot = keys[::7]
    for step in range(2000):
        key = keys[rng.randrange(len(keys))]
        if rng.random() < 0.15:
            db.delete(key)
        else:
            db.put(key, f"v{step:05d}".encode() * 3)
        if step % 2 == 0:
            db.get(hot[rng.randrange(len(hot))])  # feeds PrismDB's tracker
    db.flush()
    state = {
        "tables": fingerprint(db.manifest, db.options.num_levels),
        "compaction": dataclasses.asdict(db.executor.stats),
        "metrics": db.metrics.snapshot(),
    }
    if isinstance(db, PrismDB):
        state["placer"] = dataclasses.asdict(db.placer.stats)
    return state


def _shape_options(shape):
    # Three levels, so the workload reaches the bottom: tombstone drops,
    # tiering's in-place consolidation, lazy-leveling's leveled last hop.
    return DBOptions(
        num_levels=3,
        memtable_bytes=2 * KIB,
        target_file_bytes=4 * KIB,
        level1_target_bytes=4 * KIB,
        level_size_multiplier=4,
        block_bytes=1 * KIB,
        compaction_shape=shape,
        tiering_run_trigger=3,
    )


def _plain_db(shape):
    return LsmDB.create("NNN", _shape_options(shape))


def _routing_db(shape):
    return LsmDB.create(
        "NNN", _shape_options(shape), router=SplitKeyRouter(b"key0040")
    )


def _prism_db(shape):
    # A small tracker, filled before the first compaction, so the
    # tracker-driven placer is past its warm-up suspension (§4.2); a
    # generous threshold so it pins, pulls and exhausts budgets.
    db = PrismDB.create(
        "NTQ",
        _shape_options(shape),
        prism_options=PrismOptions(tracker_capacity=40, pinning_threshold=0.5),
    )
    for i in range(0, 400, 7):
        db.get(f"key{i:04d}".encode())
    return db


class TestShapeEquivalence:
    """The planned job stream, per compaction shape and router.

    Leveling plans leveled jobs, tiering tiered jobs and the bottom
    level's in-place consolidation, lazy-leveling both — each under real
    flush-triggered scheduling rather than hand-built jobs, with a
    router that never routes, one that always splits, and the placer.
    """

    @pytest.mark.parametrize("shape", COMPACTION_SHAPES)
    def test_workload_equivalence(self, shape):
        for make_db in (_plain_db, _routing_db, _prism_db):
            spec_state = _drive(make_db(shape), reference=True)
            engine_state = _drive(make_db(shape), reference=False)
            for part in spec_state:
                assert engine_state[part] == spec_state[part], (make_db.__name__, part)
            # The workload must actually have compacted down to the
            # bottom (and a routing router routed) for the comparison
            # to mean anything.
            stats = engine_state["compaction"]
            assert sum(stats["per_level_merges"].values()) > 0
            assert stats["records"]["tombstone_dropped"] > 0
            if make_db is not _plain_db:
                assert stats["records"]["pinned"] > 0


def compaction_merge_replay():
    """A fixed 2,000-record leveled job, replayable; ``(replay, records)``.

    Builds one upper and two overlapping lower tables once;
    ``replay(router)`` runs the same L1->L2 job through a fresh
    manifest/executor pair — the inputs are immutable SSTables, so every
    execution re-reads the same spans and does the merge itself (span
    scan, key/seqno ordering, routing, fused emission), not table
    construction.
    """
    options = DBOptions(
        memtable_bytes=4 * KIB,
        target_file_bytes=64 * KIB,
        level1_target_bytes=128 * KIB,
        level_size_multiplier=4,
        block_bytes=4 * KIB,
    )
    clock = SimClock()
    backend = StorageBackend(clock)
    layout = build_layout("NNNNN", options, clock)

    def build_table(level: int, keys) -> object:
        builder = SSTableBuilder(
            backend,
            layout.tier_for_level(level),
            block_bytes=options.block_bytes,
            target_file_bytes=1 << 30,
        )
        for seqno, key in enumerate(sorted(keys), start=1):
            builder.add(Record(key, seqno, ValueKind.PUT, b"v" * 32))
        table = builder.finish()
        return table

    upper = [build_table(1, [f"k{i:06d}".encode() for i in range(0, 2_000, 2)])]
    lower = [
        build_table(2, [f"k{i:06d}".encode() for i in range(0, 1_000, 2)]),
        build_table(2, [f"k{i:06d}".encode() for i in range(1_000, 2_000, 2)]),
    ]
    job = CompactionJob(
        style="leveled",
        upper_level=1,
        lower_level=2,
        upper_inputs=upper,
        lower_inputs=lower,
        upper_lo=upper[0].smallest_key,
        upper_hi=upper[0].largest_key,
        drop_tombstones=False,  # L2 is not the bottom of five levels
    )

    def replay(router) -> None:
        manifest = LevelManifest(options.num_levels)
        for table in upper:
            manifest.add_file(1, table)
        for table in lower:
            manifest.add_file(2, table)
        executor = CompactionExecutor(
            backend, manifest, layout, options, BlockCache(64 * KIB),
            LargestFilePicker(), router,
        )
        executor.execute(job)
        # The merge deletes its inputs; resurrect them so the next
        # replay runs the identical job (reads address the SimFile
        # object directly, so flipping the tombstone and re-allocating
        # tier capacity is all a replay needs).
        for table in upper + lower:
            file = table.file
            if file.deleted:
                file.deleted = False
                file.tier.allocate(file.size)

    return replay, 2_000


class TestCallBudget:
    """Python-level calls of one whole merge job, pinned.

    A deterministic stand-in for "no slower": host time on a shared
    machine cannot resolve a frame per record, a call count can. The
    merge works in per-job and per-block stages — scan, two C sorts,
    shadow, one ``route_up_keys`` call, one cut plan and one bulk build
    per output stream and file — so the count for the fixed
    2,000-record replay (set-up included) is a few hundred, against
    1,330 when every emitted record cost a frame. The budgets protect
    that shape from a well-meaning per-record helper: a router that
    does decide per key pays exactly its own ``route_up_key`` frames.
    """

    @staticmethod
    def _calls(router):
        replay, records = compaction_merge_replay()
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            replay(router)
        finally:
            sys.setprofile(None)
        return calls, records

    def test_compact_down_elides_the_routing_call(self):
        calls, records = self._calls(CompactDownRouter())
        assert records == 2_000
        assert calls <= 400

    def test_routing_router_costs_one_call_per_survivor(self):
        calls, records = self._calls(SplitKeyRouter(b"k001000"))
        assert records == 2_000
        # The above + 1,000 ``route_up_key`` frames + one more output stream.
        assert calls <= 1_450

    def test_an_adopting_job_encodes_no_block_and_fills_no_filter(self, monkeypatch):
        # A one-input move across tiers writes its input's blocks and
        # filter again as they are; only the input scan touches records.
        monkeypatch.setattr(MergeFixture, "LAYOUT", TWO_TIERS)
        fx = MergeFixture(reference=False)
        fx.add_table(1, MOVED)
        called = set()

        def profiler(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_qualname)

        sys.setprofile(profiler)
        try:
            fx.merge(1, MOVED[0], MOVED[-1])
        finally:
            sys.setprofile(None)
        assert "extend_spans_from" in called
        assert not called & {"encode_block", "BloomFilter.add_many", "encode_index"}
        assert fx.manifest.file_count(1) == 0 and fx.manifest.file_count(2) == 1
