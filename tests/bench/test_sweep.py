"""Tests for the design-space sweep subcommand and its artifacts."""

import argparse
import hashlib
import json
import os
import sys

import pytest

from repro.bench import sweep
from repro.bench.cli import main
from repro.bench.compare import comparable_scalars
from repro.bench.harness import RunResult
from repro.bench.sweep import (
    add_sweep_arguments,
    cell_label,
    render_sweep_table,
    run_sweep_cell,
)

#: Tiny grid: fast enough for the unit pass, big enough to compact.
TINY = ["--records", "600", "--ops", "500"]


def parse_sweep(extra):
    parser = argparse.ArgumentParser()
    add_sweep_arguments(parser)
    return parser.parse_args(TINY + extra)


class TestSweepCells:
    def test_same_seed_cells_are_identical(self):
        args = parse_sweep([])
        first = run_sweep_cell(args, "NNNTQ", "tiering", 90)
        second = run_sweep_cell(args, "NNNTQ", "tiering", 90)
        assert first.to_json() == second.to_json()

    def test_seed_changes_the_run(self):
        base = parse_sweep([])
        reseeded = parse_sweep(["--seed", "1"])
        a = run_sweep_cell(base, "NNNTQ", "leveling", 90)
        b = run_sweep_cell(reseeded, "NNNTQ", "leveling", 90)
        assert a.elapsed_usec != b.elapsed_usec

    def test_shapes_actually_differ(self):
        args = parse_sweep([])
        leveled = run_sweep_cell(args, "NNNTQ", "leveling", 50)
        tiered = run_sweep_cell(args, "NNNTQ", "tiering", 50)
        assert leveled.to_json() != tiered.to_json()

    def test_pinned_router_runs_under_every_shape(self):
        args = parse_sweep([])
        for shape in ("leveling", "tiering", "lazy-leveling"):
            result = run_sweep_cell(args, "NNNTQ", shape, 50)
            assert result.system == "prismdb"
            assert result.label == cell_label("prismdb", "NNNTQ", shape, 50)


#: sha256 over the sorted-key JSON of one cell's comparable_scalars,
#: keyed by (system, shape, read_pct, records, ops). No committed
#: baseline or perfbench workload runs a run-stacked shape, so these pin
#: the tiering and lazy-leveling scoring to its output; the 6000-record
#: cells are the ones whose measured phase compacts repeatedly (16 jobs).
SHAPE_DIGESTS = {
    ("prismdb", "tiering", 95, 600, 500): "0ab11d8ad7919ff3c0f6b8a48d596de91dcb3b301a23630b54980e9595fbbc8d",
    ("prismdb", "tiering", 50, 600, 500): "7bd2b3c84b6c6c4e30e4d4c13228b24c20b57a167a67b322b6012fbbf853ed80",
    ("prismdb", "lazy-leveling", 95, 600, 500): "0ab11d8ad7919ff3c0f6b8a48d596de91dcb3b301a23630b54980e9595fbbc8d",
    ("prismdb", "lazy-leveling", 50, 600, 500): "7bd2b3c84b6c6c4e30e4d4c13228b24c20b57a167a67b322b6012fbbf853ed80",
    ("rocksdb", "tiering", 95, 600, 500): "62c57108a566b7f855730a9c41018f102fcc6924931834a394a41059b57c1d5e",
    ("rocksdb", "tiering", 50, 600, 500): "fb13c3a14196e58021b34e8e0be068254e0e3f78823b98a4d30d061a16324674",
    ("rocksdb", "lazy-leveling", 95, 600, 500): "62c57108a566b7f855730a9c41018f102fcc6924931834a394a41059b57c1d5e",
    ("rocksdb", "lazy-leveling", 50, 600, 500): "fb13c3a14196e58021b34e8e0be068254e0e3f78823b98a4d30d061a16324674",
    ("prismdb", "tiering", 50, 6000, 3000): "c70e2fd69c02cee328a07b70fe1c05b8a1ccc75a3f0da425c134991a85444c01",
    ("prismdb", "lazy-leveling", 50, 6000, 3000): "c70e2fd69c02cee328a07b70fe1c05b8a1ccc75a3f0da425c134991a85444c01",
    ("rocksdb", "tiering", 50, 6000, 3000): "737e0b66a9019cd213ff42dd71cba8b36022fad329ba03a8129ff601d00c1db4",
    ("rocksdb", "lazy-leveling", 50, 6000, 3000): "737e0b66a9019cd213ff42dd71cba8b36022fad329ba03a8129ff601d00c1db4",
}

#: sha256 over the sorted-key JSON of the same cells' whole registry
#: snapshot (``result.metrics``): which series exist, zero-valued ones
#: included, and every value. No committed artifact records the registry
#: of a run-stacked shape (a tiering run has no trivial move and no
#: ``compaction.records{kind=pulled_up}`` series).
METRICS_DIGESTS = {
    ("prismdb", "lazy-leveling", 50, 600, 500): "d8f263ae993ba42b6c6eb66757cc797c07fb42a03d820a2e372bcb0c89c9ce09",
    ("prismdb", "lazy-leveling", 50, 6000, 3000): "81c862853ee92d909759310631f5884661743b605873a3c67a27b0738c5bafc8",
    ("prismdb", "lazy-leveling", 95, 600, 500): "f5aeb1a97ffe22f15b731ed15cbdfaa946c90d05c11d976d8c457dd0a7890f03",
    ("prismdb", "tiering", 50, 600, 500): "d8f263ae993ba42b6c6eb66757cc797c07fb42a03d820a2e372bcb0c89c9ce09",
    ("prismdb", "tiering", 50, 6000, 3000): "81c862853ee92d909759310631f5884661743b605873a3c67a27b0738c5bafc8",
    ("prismdb", "tiering", 95, 600, 500): "f5aeb1a97ffe22f15b731ed15cbdfaa946c90d05c11d976d8c457dd0a7890f03",
    ("rocksdb", "lazy-leveling", 50, 600, 500): "50cd0c0465b11652bb08a807102788ab460f2005f4d5836abbf3d5d91bea5da4",
    ("rocksdb", "lazy-leveling", 50, 6000, 3000): "9dc4ea4c12d597203a5a3afee6b6a9fcc30e0a6171f5198ef83ba068d353a867",
    ("rocksdb", "lazy-leveling", 95, 600, 500): "759e8f689c38fff46cc994fa765904845e21c05f9a7a31603eca6413250d294b",
    ("rocksdb", "tiering", 50, 600, 500): "50cd0c0465b11652bb08a807102788ab460f2005f4d5836abbf3d5d91bea5da4",
    ("rocksdb", "tiering", 50, 6000, 3000): "9dc4ea4c12d597203a5a3afee6b6a9fcc30e0a6171f5198ef83ba068d353a867",
    ("rocksdb", "tiering", 95, 600, 500): "759e8f689c38fff46cc994fa765904845e21c05f9a7a31603eca6413250d294b",
}


def sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "system, shape, read_pct, records, ops", sorted(SHAPE_DIGESTS)
)
def test_run_stacked_shapes_match_committed_digests(system, shape, read_pct, records, ops):
    args = parse_sweep(["--records", str(records), "--ops", str(ops), "--system", system])
    result = run_sweep_cell(args, "NNNTQ", shape, read_pct)
    cell = (system, shape, read_pct, records, ops)
    assert sha256_json(comparable_scalars(result)) == SHAPE_DIGESTS[cell]
    assert sha256_json(result.metrics) == METRICS_DIGESTS[cell]


class TestSweepTable:
    def test_winner_column_marks_max_throughput(self):
        args = parse_sweep([])
        shapes = ["leveling", "tiering"]
        results = {
            ("NNNTQ", 90, shape): run_sweep_cell(args, "NNNTQ", shape, 90)
            for shape in shapes
        }
        headers, rows = render_sweep_table(results, ["NNNTQ"], [90], shapes)
        assert headers[-1] == "winner"
        assert len(rows) == 1
        winner = rows[0][-1]
        assert winner in shapes
        best = max(shapes, key=lambda s: results[("NNNTQ", 90, s)].throughput_kops)
        assert winner == best


class TestSweepCli:
    def test_cli_writes_artifacts_and_index(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        code = main(
            ["sweep", *TINY, "--shapes", "leveling", "tiering", "lazy-leveling",
             "--mixes", "90", "40", "--out", out]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "Design-space sweep" in table
        assert "lazy-leveling" in table
        index = json.load(open(os.path.join(out, "sweep.json")))
        assert len(index["grid"]) == 6  # 3 shapes x 2 mixes
        for entry in index["grid"]:
            artifact = RunResult.load(os.path.join(out, entry["artifact"]))
            assert artifact.throughput_kops == entry["throughput_kops"]
            assert artifact.operations > 0

    def test_cli_rejects_unknown_shape(self, capsys):
        assert main(["sweep", "--shapes", "spiral"]) == 2

    def test_progress_line_k_follows_the_kth_result(self, monkeypatch, capsys):
        events = []
        run_cell = sweep._sweep_cell_worker

        def worker(payload):
            data = run_cell(payload)
            events.append("result")
            return data

        class Stderr:
            def write(self, text):
                if text.startswith("["):
                    events.append(text.split()[0])

            def flush(self):
                pass

        monkeypatch.setattr(sweep, "_sweep_cell_worker", worker)
        monkeypatch.setattr(sys, "stderr", Stderr())
        code = main(["sweep", *TINY, "--shapes", "leveling", "tiering", "--mixes", "90"])
        assert code == 0
        assert events == ["result", "[1/2]", "result", "[2/2]"]

    def test_jobs_do_not_change_the_artifacts(self, tmp_path, capsys):
        # Cells are independent seeded runs, so fanning them over a
        # process pool must leave sweep.json and every cell artifact
        # byte-identical to the inline run.
        grids = {}
        for jobs in ("1", "2"):
            out = str(tmp_path / f"jobs{jobs}")
            code = main(
                ["sweep", *TINY, "--shapes", "leveling", "tiering",
                 "--mixes", "90", "--jobs", jobs, "--out", out]
            )
            assert code == 0
            capsys.readouterr()
            grids[jobs] = {
                "index": open(os.path.join(out, "sweep.json")).read(),
                "cells": {
                    name: open(os.path.join(out, name)).read()
                    for name in sorted(os.listdir(out))
                    if name != "sweep.json"
                },
            }
        assert grids["1"] == grids["2"]
