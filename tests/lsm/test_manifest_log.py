"""Tests for the MANIFEST log and full DB reopen."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mutant import MutantDB, MutantOptions
from repro.common import KIB, MIB, SimClock
from repro.core import PrismDB, PrismOptions
from repro.errors import CorruptionError
from repro.lsm import DBOptions, LsmDB
from repro.lsm.manifest_log import (
    EditOp,
    ManifestLog,
    VersionEdit,
    decode_manifest,
    replay_manifest,
)
from repro.lsm.options import COMPACTION_SHAPES
from repro.storage import NVM_SPEC, StorageTier


def make_log():
    return ManifestLog(StorageTier("nvm", NVM_SPEC, 16 * MIB, SimClock()))


def tiny_options(**kwargs):
    defaults = dict(
        memtable_bytes=2 * KIB,
        target_file_bytes=2 * KIB,
        level1_target_bytes=4 * KIB,
        level_size_multiplier=4,
        block_bytes=512,
        block_cache_bytes=8 * KIB,
    )
    defaults.update(kwargs)
    return DBOptions(**defaults)


class TestVersionEdit:
    def test_round_trip(self):
        for op in EditOp:
            edit = VersionEdit(op, 42, 3)
            decoded, end = VersionEdit.decode_from(edit.encode(), 0)
            assert decoded == edit
            assert end == len(edit.encode()) == 6

    def test_truncated_fails(self):
        with pytest.raises(CorruptionError):
            VersionEdit.decode_from(b"\x01\x02", 0)

    def test_bad_op_fails(self):
        payload = VersionEdit(EditOp.NEW_RUN, 1, 0).encode()
        corrupted = b"\x09" + payload[1:]
        with pytest.raises(CorruptionError):
            VersionEdit.decode_from(corrupted, 0)


class TestManifestLog:
    def test_records_and_serializes(self):
        log = make_log()
        log.record_add(0, 1, True)
        log.record_add(1, 2, True)
        log.record_remove(0, 1)
        assert len(log) == 3
        assert [edit.op for edit in log.edits()] == [
            EditOp.NEW_RUN, EditOp.NEW_RUN, EditOp.REMOVE_FILE
        ]
        assert decode_manifest(log.serialized()) == log.edits()
        assert log.bytes_written > 0

    def test_compact_keeps_live_set_only(self):
        log = make_log()
        log.record_add(0, 1, True)
        log.record_remove(0, 1)
        log.record_add(2, 7, True)
        log.compact({2: [[7]]})
        assert len(log) == 1
        assert replay_manifest(log.edits()) == {2: [[7]]}

    @given(
        st.lists(st.tuples(st.sampled_from(EditOp), st.integers(0, 2**32 - 1),
                           st.integers(0, 6)),
                 max_size=80),
        st.dictionaries(
            st.integers(0, 6),
            st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
                     min_size=1, max_size=4),
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_form_is_the_concatenated_edits(self, trace, runs):
        log = make_log()
        model = []
        for op, file_id, level in trace:
            if op == EditOp.REMOVE_FILE:
                log.record_remove(level, file_id)
            else:
                log.record_add(level, file_id, op == EditOp.NEW_RUN)
            model.append(VersionEdit(op, file_id, level))
        assert log.serialized() == b"".join(edit.encode() for edit in model)
        assert log.edits() == model
        assert decode_manifest(log.serialized()) == model
        assert len(log) == len(model)
        written = log.bytes_written
        log.compact(runs)
        # Per level, oldest run first; a run's first file opens it.
        compacted = [
            VersionEdit(EditOp.ADD_FILE if index else EditOp.NEW_RUN, file_id, level)
            for level in sorted(runs)
            for run in reversed(runs[level])
            for index, file_id in enumerate(run)
        ]
        assert log.serialized() == b"".join(edit.encode() for edit in compacted)
        assert log.edits() == compacted
        files = sum(len(run) for level_runs in runs.values() for run in level_runs)
        assert log.bytes_written == written + 6 * files

    def test_edits_retain_six_bytes_each(self):
        log = make_log()
        gc.collect()
        tracemalloc.start()
        try:
            for file_id in range(10_000):
                log.record_add(file_id % 7, file_id, file_id % 3 == 0)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == 10_000
        assert retained / 10_000 <= 8, f"{retained / 10_000:.1f} B/edit"


class TestReplayManifest:
    def test_fold_adds_and_removes(self):
        edits = [
            VersionEdit(EditOp.NEW_RUN, 1, 0),
            VersionEdit(EditOp.NEW_RUN, 2, 1),
            VersionEdit(EditOp.REMOVE_FILE, 1, 0),
            VersionEdit(EditOp.ADD_FILE, 1, 1),
        ]
        assert replay_manifest(edits) == {1: [[2, 1]]}

    def test_runs_fold_newest_first(self):
        edits = [
            VersionEdit(EditOp.NEW_RUN, 1, 2),
            VersionEdit(EditOp.ADD_FILE, 2, 2),
            VersionEdit(EditOp.NEW_RUN, 3, 2),
            VersionEdit(EditOp.NEW_RUN, 4, 2),
            VersionEdit(EditOp.REMOVE_FILE, 3, 2),  # an emptied run disappears
            VersionEdit(EditOp.ADD_FILE, 5, 2),  # joins the newest run
        ]
        assert replay_manifest(edits) == {2: [[4, 5], [1, 2]]}

    def test_join_without_a_run_rejected(self):
        with pytest.raises(CorruptionError, match="joins no run"):
            replay_manifest([VersionEdit(EditOp.ADD_FILE, 1, 1)])

    def test_double_add_rejected(self):
        edits = [VersionEdit(EditOp.NEW_RUN, 1, 0), VersionEdit(EditOp.NEW_RUN, 1, 2)]
        with pytest.raises(CorruptionError):
            replay_manifest(edits)

    def test_remove_of_absent_rejected(self):
        with pytest.raises(CorruptionError):
            replay_manifest([VersionEdit(EditOp.REMOVE_FILE, 9, 0)])

    def test_remove_from_wrong_level_rejected(self):
        edits = [VersionEdit(EditOp.NEW_RUN, 1, 0), VersionEdit(EditOp.REMOVE_FILE, 1, 3)]
        with pytest.raises(CorruptionError):
            replay_manifest(edits)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 4), st.booleans()),
                    max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_replay_matches_incremental_model(self, adds):
        # Build a legal edit sequence from a random add/remove trace.
        log_edits = []
        model: dict[int, list[list[int]]] = {}
        live: dict[int, int] = {}
        for file_id, level, new_run in adds:
            if file_id in live:
                level = live.pop(file_id)
                log_edits.append(VersionEdit(EditOp.REMOVE_FILE, file_id, level))
                runs = model[level]
                run = next(run for run in runs if file_id in run)
                run.remove(file_id)
                if not run:
                    runs.remove(run)
                    if not runs:
                        del model[level]
                continue
            runs = model.setdefault(level, [])
            if new_run or not runs:
                log_edits.append(VersionEdit(EditOp.NEW_RUN, file_id, level))
                runs.insert(0, [file_id])
            else:
                log_edits.append(VersionEdit(EditOp.ADD_FILE, file_id, level))
                runs[0].append(file_id)
            live[file_id] = level
        assert replay_manifest(log_edits) == model


class TestReopen:
    def _churn(self, db, n=2500, seed=1):
        rng = random.Random(seed)
        model = {}
        for _ in range(n):
            key = f"key{rng.randrange(250):04d}".encode()
            if rng.random() < 0.1:
                db.delete(key)
                model.pop(key, None)
            else:
                value = rng.randbytes(20)
                db.put(key, value)
                model[key] = value
        return model

    def test_reopen_preserves_all_data(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        model = self._churn(db)
        reopened = db.reopen()
        for key, value in model.items():
            assert reopened.get(key).value == value
        assert dict(reopened.scan(b"", 10_000).items) == model
        reopened.check_invariants()

    def test_reopen_rejects_closed_original(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        db.put(b"k", b"v")
        db.reopen()
        from repro.errors import DBClosedError

        with pytest.raises(DBClosedError):
            db.put(b"k2", b"v2")  # original is closed by reopen

    def test_reopen_preserves_seqno_monotonicity(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        self._churn(db, 1000)
        old_seqno = db._seqno
        reopened = db.reopen()
        assert reopened._seqno >= old_seqno - len(db._memtable)
        reopened.put(b"new", b"write")
        assert reopened.get(b"new").value == b"write"
        reopened.flush()
        reopened.check_invariants()

    def test_reopen_starts_with_cold_cache_and_compacted_manifest(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        self._churn(db, 2000)
        live_files = db.manifest.file_count()
        reopened = db.reopen()
        assert len(reopened.cache) == 0
        assert len(reopened.manifest_log) == live_files

    @pytest.mark.parametrize("shape", COMPACTION_SHAPES)
    def test_reopen_keeps_every_levels_runs(self, shape):
        db = LsmDB.create(
            "NNNTQ", tiny_options(compaction_shape=shape, l0_compaction_trigger=3)
        )
        self._churn(db, 3000)

        def layout(db):
            return [
                ([[table.file_id for table in run] for run in db.manifest.runs(level)],
                 db.executor.compaction_score(level))
                for level in range(db.options.num_levels)
            ]

        before = layout(db)
        # A stacked level holding a run of several files: what a reopen
        # that re-adds file by file would split into one run per file.
        assert shape == "leveling" or any(
            len(run) > 1
            for level in range(1, db.options.num_levels)
            if db.manifest.is_run_stacked(level)
            for run in db.manifest.runs(level)
        )
        once = db.reopen()
        assert layout(once) == before
        once.check_invariants()
        assert layout(once.reopen()) == before

    def test_reopen_l0_order_preserved(self):
        db = LsmDB.create("NNNTQ", tiny_options())
        db.put(b"k", b"old")
        db.flush()
        db.put(b"k", b"new")
        db.flush()
        reopened = db.reopen()
        assert reopened.get(b"k").value == b"new"

    def test_prismdb_reopen_resets_tracker(self):
        db = PrismDB.create(
            "NNNTQ", tiny_options(), PrismOptions(tracker_capacity=32, require_full_tracker=False)
        )
        model = self._churn(db, 1500)
        for key in list(model)[:20]:
            db.get(key)
        assert len(db.tracker) > 0
        reopened = db.reopen()
        assert len(reopened.tracker) == 0  # volatile state gone
        for key, value in model.items():
            assert reopened.get(key).value == value

    def test_mutant_reopen_resets_temperatures(self):
        db = MutantDB.create("NNNTQ", tiny_options(), MutantOptions())
        model = self._churn(db, 1500)
        reopened = db.reopen()
        assert reopened._temperatures == {}
        for key, value in list(model.items())[:30]:
            assert reopened.get(key).value == value
