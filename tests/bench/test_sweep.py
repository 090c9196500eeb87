"""Tests for the design-space sweep subcommand and its artifacts."""

import argparse
import json
import os
import sys

from repro.bench import sweep
from repro.bench.cli import main
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
