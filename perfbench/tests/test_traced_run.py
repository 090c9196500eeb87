"""The traced run against the program's own counters, on ``--quick`` sizes.

Each case runs the real worker in a subprocess (the tracer patches
classes process-wide, so it must not run inside the test process).
"""

from __future__ import annotations

import pytest

from perfbench import runner
from perfbench.metrics import PER_LAYER


@pytest.fixture(scope="module")
def read_hot():
    untraced = runner.run_repeat("read-hot", 1, quick=True)
    traced = runner.run_repeat("read-hot", 1, quick=True, traced=True)
    return untraced, traced


def _entries(traced: dict, layer: str) -> dict:
    return traced["ledger"]["layers"][layer]["entries"]


def test_tracing_does_not_change_the_simulation(read_hot):
    untraced, traced = read_hot
    assert traced["sim"] == untraced["sim"]  # bit-identical, every metric
    assert traced["host"]["ops_measured"] == untraced["host"]["ops_measured"]


def test_every_read_was_checked_inline_and_none_failed(read_hot):
    untraced, traced = read_hot
    assert traced["check"]["failed"] == 0 == untraced["check"]["failed"]
    assert traced["check"]["verification_ops"] == traced["ledger"]["metrics"]["lsm.db.read_calls"]


def test_span_table_resolves_at_this_commit(read_hot):
    _, traced = read_hot
    assert traced["ledger"]["unresolved"] == []
    assert traced["ledger"]["metrics"]["trace.unresolved_spans"] == 0


def test_tracer_counts_equal_the_programs_own_counters(read_hot):
    _, traced = read_hot
    device = _entries(traced, "storage.device")
    assert device["Device.read"]["calls"] + device["Device.write"]["calls"] == (
        traced["ledger"]["device_calls"])
    metrics = traced["ledger"]["metrics"]
    lanes = _entries(traced, "lsm.db")
    assert lanes["LsmDB._build_read_lane"]["calls"] == metrics["lsm.db.read_calls"]
    assert lanes["LsmDB.write_lane"]["calls"] == metrics["lsm.db.write_calls"]
    ops = traced["host"]["ops_measured"]
    assert metrics["lsm.db.read_calls"] + metrics["lsm.db.write_calls"] == ops
    assert _entries(traced, "common.clock")["SimClock.advance"]["calls"] == ops


def test_ledger_parts_sum_to_the_traced_whole(read_hot):
    untraced, traced = read_hot
    layers = traced["ledger"]["layers"]
    root = _entries(traced, "bench.harness")["WorkloadRunner.run"]
    # Exact: every ns of the root span is the raw self time of one entry.
    assert sum(row["self_ns"] for row in layers.values()) == root["inclusive_ns"]
    block = runner.ledger_block(untraced, traced)["metrics"]
    assert set(block) == {name for name, _, _ in PER_LAYER}
    parts = sum(row["value"] for name, row in block.items()
                if name.endswith(".self_us_per_op"))
    whole = block["trace.host_us_per_op"]["value"]
    assert parts == pytest.approx(whole, rel=0.01)
    assert block["trace.overhead_frac"]["value"] > 0
    # With the tracer's overhead taken out, the program's layers are the untraced whole.
    program = parts - block["residual.self_us_per_op"]["value"]
    assert program == pytest.approx(runner.repeat_totals(untraced)["host_us_per_op"], rel=0.01)


def test_scan_cold_never_enters_core():
    traced = runner.run_repeat("scan-cold", 1, quick=True, traced=True)
    metrics = traced["ledger"]["metrics"]
    for layer in ("core.prismdb", "core.tracker", "core.placer", "core.mapper"):
        assert metrics[f"{layer}.calls_per_op"] == 0
    assert metrics["lsm.db.scan_calls"] > 0
    assert metrics["lsm.iterators.calls_per_op"] > 0
    assert traced["check"]["failed"] == 0
