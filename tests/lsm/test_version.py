"""Tests for the level manifest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import KIB, MIB, SimClock
from repro.errors import CompactionError
from repro.lsm.record import Record, ValueKind
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.version import LevelManifest
from repro.storage import NVM_SPEC, StorageBackend, StorageTier


class ManifestFixture:
    def __init__(self):
        self.clock = SimClock()
        self.backend = StorageBackend(self.clock)
        self.tier = StorageTier("nvm", NVM_SPEC, 64 * MIB, self.clock)
        self.seqno = 0

    def table(self, lo: bytes, hi: bytes):
        """Build a tiny table spanning [lo, hi].

        Keys score -1, 0 or 1 by their last byte, so tables come out
        hot (positive score), zero or negative.
        """
        builder = SSTableBuilder(
            self.backend, self.tier, block_bytes=512, target_file_bytes=4 * KIB,
            clock_values_fn=lambda keys: [key[-1] % 3 - 1 for key in keys],
        )
        self.seqno += 1
        builder.add(Record(lo, self.seqno, ValueKind.PUT, b"v"))
        if hi != lo:
            self.seqno += 1
            builder.add(Record(hi, self.seqno, ValueKind.PUT, b"v"))
        table = builder.finish()
        return table


@pytest.fixture
def fx():
    return ManifestFixture()


class TestLevelManifest:
    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            LevelManifest(1)

    def test_l0_is_newest_first(self, fx):
        manifest = LevelManifest(3)
        first = fx.table(b"a", b"m")
        second = fx.table(b"b", b"z")
        manifest.add_file(0, first)
        manifest.add_file(0, second)
        assert manifest.files(0) == [second, first]

    def test_l1_sorted_by_smallest(self, fx):
        manifest = LevelManifest(3)
        late = fx.table(b"m", b"p")
        early = fx.table(b"a", b"c")
        manifest.add_file(1, late)
        manifest.add_file(1, early)
        assert manifest.files(1) == [early, late]

    def test_l1_overlap_rejected(self, fx):
        manifest = LevelManifest(3)
        manifest.add_file(1, fx.table(b"a", b"m"))
        with pytest.raises(CompactionError):
            manifest.add_file(1, fx.table(b"k", b"z"))
        with pytest.raises(CompactionError):
            manifest.add_file(1, fx.table(b"a", b"b"))

    def test_l0_overlap_allowed(self, fx):
        manifest = LevelManifest(3)
        manifest.add_file(0, fx.table(b"a", b"m"))
        manifest.add_file(0, fx.table(b"k", b"z"))  # no error
        assert manifest.file_count(0) == 2

    def test_remove_file(self, fx):
        manifest = LevelManifest(3)
        table = fx.table(b"a", b"b")
        manifest.add_file(1, table)
        manifest.remove_file(1, table)
        assert manifest.file_count(1) == 0

    def test_remove_missing_file_fails(self, fx):
        manifest = LevelManifest(3)
        with pytest.raises(CompactionError):
            manifest.remove_file(1, fx.table(b"a", b"b"))

    def test_candidates_l0_in_order(self, fx):
        manifest = LevelManifest(3)
        old = fx.table(b"a", b"m")
        new = fx.table(b"c", b"z")
        manifest.add_file(0, old)
        manifest.add_file(0, new)
        assert manifest.candidates_for_key(0, b"d") == [new, old]
        assert manifest.candidates_for_key(0, b"b") == [old]
        assert manifest.candidates_for_key(0, b"zz") == []

    def test_candidates_l1_single_file(self, fx):
        manifest = LevelManifest(3)
        left = fx.table(b"a", b"c")
        right = fx.table(b"m", b"p")
        manifest.add_file(1, left)
        manifest.add_file(1, right)
        assert manifest.candidates_for_key(1, b"b") == [left]
        assert manifest.candidates_for_key(1, b"n") == [right]
        assert manifest.candidates_for_key(1, b"e") == []
        assert manifest.candidates_for_key(1, b"q") == []

    def test_overlapping_files(self, fx):
        manifest = LevelManifest(3)
        a = fx.table(b"a", b"c")
        b = fx.table(b"e", b"g")
        c = fx.table(b"m", b"p")
        for table in (a, b, c):
            manifest.add_file(1, table)
        assert manifest.overlapping_files(1, b"b", b"f") == [a, b]
        assert manifest.overlapping_files(1, b"h", b"j") == []

    def test_level_bytes_and_counts(self, fx):
        manifest = LevelManifest(3)
        table = fx.table(b"a", b"b")
        manifest.add_file(1, table)
        assert manifest.level_bytes(1) == table.size_bytes
        assert manifest.file_count() == 1
        assert manifest.total_bytes() == table.size_bytes

    def test_check_invariants_passes_on_valid(self, fx):
        manifest = LevelManifest(3)
        manifest.add_file(1, fx.table(b"a", b"c"))
        manifest.add_file(1, fx.table(b"e", b"g"))
        manifest.check_invariants()

    def test_all_files_iterates_levels(self, fx):
        manifest = LevelManifest(3)
        t0 = fx.table(b"a", b"b")
        t1 = fx.table(b"c", b"d")
        manifest.add_file(0, t0)
        manifest.add_file(1, t1)
        assert list(manifest.all_files()) == [(0, t0), (1, t1)]


# ----------------------------------------------------------------------
# Fence-pointer index: equivalence with a brute-force filter
# ----------------------------------------------------------------------
#: Table boundaries are drawn from KEYS, so probing every one of them
#: lands on exact boundaries, inside files and in the gaps between
#: them; the two sentinels sit below the first and above the last fence.
KEYS = [f"{i:02d}".encode() for i in range(40)]
PROBES = [b"", *KEYS, b"zz"]
RANGE_ENDS = [b"", *KEYS[::5], KEYS[-1], b"zz"]

LEVELED, STACKED = (1, 3), (2,)

key_index = st.integers(0, len(KEYS) - 1)
key_range = st.tuples(key_index, key_index).map(sorted)
manifest_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add_file"), st.sampled_from((0, *LEVELED, *STACKED)), key_range),
        st.tuples(
            st.just("add_run"),
            st.sampled_from(STACKED),
            # Distinct sorted points paired off: a disjoint sorted run.
            st.lists(key_index, min_size=2, max_size=8, unique=True).map(sorted),
        ),
        st.tuples(st.just("remove_file"), st.integers(0, 3), st.integers(0, 1 << 16)),
    ),
    max_size=25,
)


def layout_of(manifest):
    """Everything the index must leave untouched when a mutation fails."""
    return [list(manifest.files(level)) for level in range(manifest.num_levels)]


def assert_index_matches_brute_force(manifest):
    manifest.check_invariants()  # includes fences == file lists
    for level in range(manifest.num_levels):
        files = manifest.files(level)
        assert manifest.hot_bytes(level) == sum(
            t.size_bytes for t in files if t.popularity_score > 0
        ), level
        for key in PROBES:
            assert manifest.candidates_for_key(level, key) == [
                t for t in files if t.smallest_key <= key <= t.largest_key
            ], (level, key)
        for i, lo in enumerate(RANGE_ENDS):
            for hi in RANGE_ENDS[i:]:
                assert manifest.overlapping_files(level, lo, hi) == [
                    t for t in files if t.overlaps(lo, hi)
                ], (level, lo, hi)
        if level == 0:
            continue
        for key in PROBES:
            seeked = manifest.seek_runs(level, key)
            assert [run for run, _ in seeked] == manifest.runs(level)
            for run, pos in seeked:
                assert run[pos:] == [t for t in run if t.largest_key >= key]


class TestFenceIndex:
    @settings(max_examples=60, deadline=None)
    @given(ops=manifest_ops)
    def test_matches_brute_force_after_every_mutation(self, ops):
        fx = ManifestFixture()
        manifest = LevelManifest(4, run_stacked_levels=STACKED)
        for op, level, arg in ops:
            if op == "add_file":
                lo, hi = arg
                table = fx.table(KEYS[lo], KEYS[hi])
                clash = level in LEVELED and any(
                    t.overlaps(table.smallest_key, table.largest_key)
                    for t in manifest.files(level)
                )
                if clash:
                    before = layout_of(manifest)
                    with pytest.raises(CompactionError):
                        manifest.add_file(level, table)
                    assert layout_of(manifest) == before
                else:
                    manifest.add_file(level, table)
            elif op == "add_run":
                points = arg[: len(arg) // 2 * 2]
                manifest.add_run(
                    level,
                    [
                        fx.table(KEYS[lo], KEYS[hi])
                        for lo, hi in zip(points[::2], points[1::2])
                    ],
                )
            else:
                files = manifest.files(level)
                if not files:
                    continue
                manifest.remove_file(level, files[arg % len(files)])
            assert_index_matches_brute_force(manifest)

    def test_rejected_add_leaves_index_untouched(self, fx):
        manifest = LevelManifest(3)
        left = fx.table(b"a", b"c")
        right = fx.table(b"m", b"p")
        manifest.add_file(1, left)
        manifest.add_file(1, right)
        for lo, hi in ((b"b", b"d"), (b"d", b"m"), (b"a", b"z"), (b"c", b"c")):
            with pytest.raises(CompactionError):
                manifest.add_file(1, fx.table(lo, hi))
            manifest.check_invariants()
            assert manifest.files(1) == [left, right]
            assert manifest.candidates_for_key(1, b"b") == [left]
            assert manifest.candidates_for_key(1, b"d") == []
            assert manifest.candidates_for_key(1, b"n") == [right]
            assert manifest.overlapping_files(1, b"a", b"z") == [left, right]

    def test_hot_byte_totals_are_kept_and_checked(self, fx):
        manifest = LevelManifest(3, run_stacked_levels=(2,))
        hot, cold = fx.table(b"02", b"02"), fx.table(b"00", b"00")  # scores 1 and -1
        manifest.add_file(1, hot)
        manifest.add_run(2, [cold, fx.table(b"05", b"05")])  # -1 and 1
        assert manifest.hot_bytes(1) == hot.size_bytes
        assert manifest.hot_bytes(2) == manifest.files(2)[1].size_bytes
        manifest.remove_file(1, hot)
        assert manifest.hot_bytes(1) == 0
        manifest._hot_bytes[2] += 1
        with pytest.raises(CompactionError, match="hot byte total"):
            manifest.check_invariants()

    def test_remove_needs_the_same_table_not_an_equal_range(self, fx):
        manifest = LevelManifest(3, run_stacked_levels=(2,))
        for level in (1, 2):
            present = fx.table(b"a", b"c")
            manifest.add_file(level, present)
            with pytest.raises(CompactionError):
                manifest.remove_file(level, fx.table(b"a", b"c"))
            assert manifest.files(level) == [present]
            manifest.check_invariants()

    def test_emptied_run_disappears_with_its_fences(self, fx):
        manifest = LevelManifest(3, run_stacked_levels=(1,))
        old = [fx.table(b"a", b"c"), fx.table(b"e", b"g")]
        new = fx.table(b"b", b"f")
        manifest.add_run(1, old)
        manifest.add_file(1, new)
        assert manifest.candidates_for_key(1, b"f") == [new, old[1]]
        manifest.remove_file(1, new)
        assert manifest.runs(1) == [old]
        assert manifest.candidates_for_key(1, b"f") == [old[1]]
        manifest.check_invariants()
