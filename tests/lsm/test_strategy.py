"""Tests for the compaction shape: which levels stack sorted runs, and
the jobs the executor plans from that."""

import pytest

from repro.common import KIB
from repro.errors import CompactionError, ConfigError
from repro.lsm.compaction import MergeRouter
from repro.lsm.db import LsmDB
from repro.lsm.options import DBOptions
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTableBuilder


class PinEverythingRouter(MergeRouter):
    """Test double: pins every record to the upper level."""

    supports_trivial_move = False

    def route_up_key(self, user_key, kind_code, encoded_size, source_level):
        return True


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


class ShapeFixture:
    """A DB's manifest and executor on a one-tier 5-level layout, fed
    hand-built tables and planned directly."""

    def __init__(self, options=None, router=None):
        self.options = options or small_options()
        self.db = LsmDB.create("NNNNN", self.options, router=router)
        self.backend = self.db.backend
        self.layout = self.db.layout
        self.manifest = self.db.manifest
        self.executor = self.db.executor
        self.seqno = 0

    def add_table(self, level, keys, *, kind=ValueKind.PUT, value=b"v" * 20):
        builder = SSTableBuilder(
            self.backend,
            self.layout.tier_for_level(level),
            block_bytes=self.options.block_bytes,
            target_file_bytes=1 << 30,
        )
        for key in sorted(keys):
            self.seqno += 1
            builder.add(
                Record(key, self.seqno, kind, value if kind == ValueKind.PUT else b"")
            )
        table = builder.finish()
        self.manifest.add_file(level, table)
        return table


def fill_db(db, writes=4000, keys=800, deletes=True):
    import random

    rng = random.Random(7)
    expect = {}
    for i in range(writes):
        key = f"k{rng.randrange(keys):04d}".encode()
        value = f"v{i}".encode() * 4
        db.put(key, value)
        expect[key] = value
        if deletes and i % 11 == 0:
            dead = f"k{rng.randrange(keys):04d}".encode()
            db.delete(dead)
            expect[dead] = None
    db.flush()
    return expect


def stacked_levels(manifest):
    return tuple(level for level in range(manifest.num_levels) if manifest.is_run_stacked(level))


#: Per shape on the 5-level layout: its run-stacked levels and, per
#: level 0..4, the job planned on :func:`fill_every_level`'s tables as
#: (style, (upper_level, lower_level), drop_tombstones, upper inputs),
#: the inputs being the whole level or the picker's one file. A
#: CompactionError entry means planning that level raises.
PLANS = {
    "leveling": ((), [
        ("leveled", (0, 1), False, "all"),
        ("leveled", (1, 2), False, "picked"),
        ("leveled", (2, 3), False, "picked"),
        ("leveled", (3, 4), True, "picked"),
        CompactionError,
    ]),
    "tiering": ((1, 2, 3, 4), [
        ("tiered", (0, 1), False, "all"),
        ("tiered", (1, 2), False, "all"),
        ("tiered", (2, 3), False, "all"),
        ("tiered", (3, 4), False, "all"),  # the bottom holds runs already
        ("tiered", (4, 4), True, "all"),  # in-place bottom consolidation
    ]),
    "lazy-leveling": ((1, 2, 3), [
        ("tiered", (0, 1), False, "all"),
        ("tiered", (1, 2), False, "all"),
        ("tiered", (2, 3), False, "all"),
        ("leveled", (3, 4), True, "all"),  # a whole stack into the leveled bottom
        CompactionError,
    ]),
}


def fill_every_level(fx):
    """Two tables per level, each overlapping the level below: two
    overlapping files (two runs) at L0 and on stacked levels, two
    disjoint files on leveled ones."""
    for level in range(fx.options.num_levels):
        if level == 0 or fx.manifest.is_run_stacked(level):
            fx.add_table(level, [b"a", b"z"])
            fx.add_table(level, [b"b", b"y"])
        else:
            fx.add_table(level, [b"a", b"m"])
            fx.add_table(level, [b"n", b"z"])


class TestPlanTable:
    @pytest.mark.parametrize("shape", PLANS)
    def test_stacked_levels(self, shape):
        fx = ShapeFixture(small_options(compaction_shape=shape))
        assert stacked_levels(fx.manifest) == PLANS[shape][0]

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("shape", PLANS)
    def test_planned_job(self, shape, level):
        fx = ShapeFixture(small_options(compaction_shape=shape))
        fill_every_level(fx)
        expected = PLANS[shape][1][level]
        if expected is CompactionError:
            with pytest.raises(CompactionError):
                fx.executor.plan_job(level)
            return
        style, levels, drop_tombstones, inputs = expected
        job = fx.executor.plan_job(level)
        assert (job.style, (job.upper_level, job.lower_level), job.drop_tombstones) == (
            style, levels, drop_tombstones
        )
        if inputs == "all":
            assert job.upper_inputs == fx.manifest.files(level)
        else:
            assert job.upper_inputs == fx.db.picker.pick_files(fx.manifest, level)
            assert len(job.upper_inputs) == 1

    @pytest.mark.parametrize("shape", PLANS)
    def test_levels_out_of_range_raise(self, shape):
        fx = ShapeFixture(small_options(compaction_shape=shape))
        for level in (-1, 5):
            with pytest.raises(CompactionError):
                fx.executor.plan_job(level)

    def test_tiering_into_an_empty_bottom_drops_tombstones(self):
        fx = ShapeFixture(small_options(compaction_shape="tiering"))
        fx.add_table(3, [b"a", b"z"])
        job = fx.executor.plan_job(3)
        assert (job.style, job.lower_level, job.drop_tombstones) == ("tiered", 4, True)

    def test_tiering_bottom_of_one_run_plans_nothing(self):
        fx = ShapeFixture(small_options(compaction_shape="tiering"))
        assert fx.executor.plan_job(4) is None
        fx.add_table(4, [b"a", b"z"])
        assert fx.executor.plan_job(4) is None


class TestFactories:
    def test_options_validate_policy_names(self):
        with pytest.raises(ConfigError):
            small_options(compaction_shape="spiral")
        with pytest.raises(ConfigError):
            small_options(tiering_run_trigger=1)


class TestShapeInvariants:
    # The shapes on a 3-level layout; PLANS covers the 5-level one.
    def test_tiering_stacks_all_levels_below_l0(self):
        db = LsmDB.create("NNN", small_options(num_levels=3, compaction_shape="tiering"))
        assert stacked_levels(db.manifest) == (1, 2)

    def test_lazy_leveling_keeps_bottom_leveled(self):
        db = LsmDB.create("NNN", small_options(num_levels=3, compaction_shape="lazy-leveling"))
        assert stacked_levels(db.manifest) == (1,)

    def test_leveling_preserves_disjointness(self):
        db = LsmDB.create("NNNNN", small_options())
        fill_db(db)
        for level in range(1, db.options.num_levels):
            assert db.manifest.run_count(level) <= 1
        db.manifest.check_invariants()  # raises on any overlap

    def test_tiering_allows_overlapping_runs_within_level(self):
        db = LsmDB.create("NNNNN", small_options(compaction_shape="tiering"))
        fill_db(db)
        stacked = [
            level
            for level in range(1, db.options.num_levels)
            if db.manifest.run_count(level) > 1
        ]
        assert stacked, "expected at least one level holding multiple runs"
        overlaps = 0
        for level in stacked:
            runs = db.manifest.runs(level)
            for i, run_a in enumerate(runs):
                for run_b in runs[i + 1:]:
                    lo_a = min(t.smallest_key for t in run_a)
                    hi_a = max(t.largest_key for t in run_a)
                    lo_b = min(t.smallest_key for t in run_b)
                    hi_b = max(t.largest_key for t in run_b)
                    if lo_a <= hi_b and lo_b <= hi_a:
                        overlaps += 1
        assert overlaps > 0, "run stacks never overlapped — not tiering"
        # ...and yet the structural + version-order invariants hold.
        db.check_invariants()

    def test_overlapping_add_rejected_on_leveled_level(self):
        fx = ShapeFixture()
        fx.add_table(1, [b"a", b"m"])
        with pytest.raises(CompactionError):
            fx.add_table(1, [b"b", b"c"])

    def test_tiered_shapes_read_correctly(self):
        for shape in ("tiering", "lazy-leveling"):
            db = LsmDB.create("NNNNN", small_options(compaction_shape=shape))
            expect = fill_db(db)
            for key, value in expect.items():
                assert db.get(key).value == value, (shape, key)
            live = sorted(k for k, v in expect.items() if v is not None)
            scanned = [k for k, _ in db.scan(live[0], 40).items]
            assert scanned == live[:40], shape

    def test_lazy_leveling_bottom_is_single_sorted_run(self):
        db = LsmDB.create(
            "NNNNN", small_options(compaction_shape="lazy-leveling")
        )
        fill_db(db, writes=6000)
        bottom = db.options.num_levels - 1
        assert not db.manifest.is_run_stacked(bottom)
        assert db.manifest.run_count(bottom) <= 1
        db.check_invariants()


class TestTriggers:
    def test_file_count_trigger_fires_at_threshold(self):
        fx = ShapeFixture(small_options(l0_compaction_trigger=3))
        fx.add_table(0, [b"a"])
        fx.add_table(0, [b"b"])
        assert fx.executor.compaction_score(0) == pytest.approx(2 / 3)
        assert fx.executor.pick_compaction_level() is None
        fx.add_table(0, [b"c"])
        assert fx.executor.compaction_score(0) == pytest.approx(1.0)
        assert fx.executor.pick_compaction_level() == 0

    def test_file_count_trigger_keeps_l0_threshold(self):
        for shape in ("leveling", "tiering", "lazy-leveling"):
            fx = ShapeFixture(small_options(compaction_shape=shape))
            for i in range(fx.options.l0_compaction_trigger):
                fx.add_table(0, [f"k{i}".encode()])
            assert fx.executor.compaction_score(0) == pytest.approx(1.0), shape

    def test_tiering_run_trigger_fires_at_threshold(self):
        fx = ShapeFixture(
            small_options(compaction_shape="tiering", tiering_run_trigger=2)
        )
        fx.add_table(1, [b"a", b"z"])
        assert fx.executor.compaction_score(1) == pytest.approx(0.5)
        fx.add_table(1, [b"b", b"y"])  # overlapping: becomes a second run
        assert fx.manifest.run_count(1) == 2
        assert fx.executor.compaction_score(1) == pytest.approx(1.0)

    def test_size_ratio_is_default_and_unchanged(self):
        fx = ShapeFixture()
        assert stacked_levels(fx.manifest) == ()
        assert fx.executor.compaction_score(4) == 0.0  # bottom never


class TestTieredExecution:
    def test_whole_level_merges_into_one_run_below(self):
        fx = ShapeFixture(
            small_options(compaction_shape="tiering", tiering_run_trigger=2)
        )
        fx.add_table(1, [b"a", b"z"])
        fx.add_table(1, [b"b", b"y"])
        fx.executor.run_job(1)
        assert fx.manifest.file_count(1) == 0
        assert fx.manifest.run_count(2) == 1
        keys = sorted(
            r.user_key
            for t in fx.manifest.files(2)
            for r in t.read_all_records()
        )
        assert keys == [b"a", b"b", b"y", b"z"]

    def test_bottom_consolidation_merges_runs_and_drops_tombstones(self):
        fx = ShapeFixture(
            small_options(compaction_shape="tiering", tiering_run_trigger=2)
        )
        fx.add_table(4, [b"a", b"k"])
        fx.add_table(4, [b"k"], kind=ValueKind.DELETE)  # newer tombstone
        assert fx.manifest.run_count(4) == 2
        assert fx.executor.compaction_score(4) >= 1.0
        fx.executor.run_job(4)
        assert fx.manifest.run_count(4) == 1
        keys = [
            r.user_key
            for t in fx.manifest.files(4)
            for r in t.read_all_records()
        ]
        assert keys == [b"a"]  # tombstone applied and dropped
        assert fx.executor.stats.records["tombstone_dropped"] == 1

    def test_pinned_router_composes_with_tiering(self):
        fx = ShapeFixture(
            small_options(compaction_shape="tiering", tiering_run_trigger=2),
            router=PinEverythingRouter(),
        )
        fx.add_table(1, [b"a", b"z"])
        fx.add_table(1, [b"b", b"y"])
        fx.executor.run_job(1)
        # Everything was retained at L1 as a fresh run; nothing sank.
        assert fx.executor.stats.records["pinned"] == 4
        assert fx.manifest.run_count(1) == 1
        assert fx.manifest.file_count(2) == 0

    def test_tiered_bottom_cannot_overflow(self):
        fx = ShapeFixture(small_options(compaction_shape="tiering"))
        with pytest.raises(CompactionError):
            fx.executor.plan_job(5)  # out of range
        # lazy-leveling refuses its bottom outright, like leveling.
        lazy = ShapeFixture(small_options(compaction_shape="lazy-leveling"))
        with pytest.raises(CompactionError):
            lazy.executor.run_job(4)


class TestStrategyThroughDbOptions:
    def test_reopen_preserves_shape_and_data(self):
        db = LsmDB.create("NNNNN", small_options(compaction_shape="tiering"))
        expect = fill_db(db, writes=2500)
        reopened = db.reopen()
        assert reopened.manifest.is_run_stacked(1)
        reopened.check_invariants()
        for key, value in list(expect.items())[:200]:
            assert reopened.get(key).value == value
