"""Span-stack arithmetic, generator spans, factories and unresolved targets."""

from __future__ import annotations

import pytest

from perfbench import tracer as tracer_mod
from perfbench.tests import fake_program
from perfbench.tracer import SpanTarget, SpanTracer

FAKE = "perfbench.tests.fake_program"


@pytest.fixture
def tracer(monkeypatch):
    fake_program.NOW[0] = 0
    monkeypatch.setattr(tracer_mod, "_clock", fake_program.clock)
    instance = SpanTracer()
    yield instance
    instance.uninstall()


def _row(tracer: SpanTracer, name: str) -> dict:
    eid = tracer.entry_id(name)
    return {
        "calls": tracer.calls[eid],
        "incl": tracer.incl_ns[eid],
        "self": tracer.self_ns[eid],
        "children": tracer.children[eid],
    }


def test_self_time_is_span_minus_child_spans(tracer):
    tracer.install([
        SpanTarget("top", f"{FAKE}:outer"),
        SpanTarget("mid", f"{FAKE}:Middle.work"),
        SpanTarget("low", f"{FAKE}:leaf"),
    ])
    tracer.on = True
    fake_program.outer()
    tracer.on = False
    assert _row(tracer, "outer") == {"calls": 1, "incl": 24, "self": 11, "children": 1}
    assert _row(tracer, "Middle.work") == {"calls": 1, "incl": 13, "self": 7, "children": 2}
    assert _row(tracer, "leaf") == {"calls": 2, "incl": 6, "self": 6, "children": 0}
    # The parts sum to the whole: every ns of the root span is some layer's self time.
    assert sum(tracer.self_ns) == _row(tracer, "outer")["incl"]
    layers = tracer.by_layer()
    assert {name: row["self_ns"] for name, row in layers.items()} == {
        "top": 11, "mid": 7, "low": 6}


def test_spans_are_recorded_only_while_on(tracer):
    tracer.install([SpanTarget("low", f"{FAKE}:leaf")])
    fake_program.leaf()
    assert tracer.calls[tracer.entry_id("leaf")] == 0
    assert not tracer.raw


def test_raw_spans_keep_parent_and_depth_in_exit_order(tracer):
    tracer.install([SpanTarget("top", f"{FAKE}:outer"), SpanTarget("low", f"{FAKE}:leaf")])
    tracer.on = True
    fake_program.outer()
    spans = tracer.raw_spans()
    assert [(s["entry"], s["parent"], s["depth"]) for s in spans] == [
        ("leaf", "outer", 1), ("leaf", "outer", 1), ("outer", None, 0)]
    assert [s["dur_ns"] for s in spans] == [3, 3, 24]


def test_generator_resumptions_are_the_spans(tracer):
    tracer.install([SpanTarget("mid", f"{FAKE}:Middle.items")])
    tracer.on = True
    assert list(fake_program.Middle().items()) == [0, 1, 2]
    row = _row(tracer, "Middle.items")
    # Three yielding resumptions plus the exhausting one; 4 ns of body each.
    assert row["calls"] == 4
    assert row["self"] == 12


def test_factory_spans_the_returned_closure_once(tracer):
    tracer.install([
        SpanTarget("mid", f"{FAKE}:Middle.make_lane", factory=True),
        SpanTarget("mid", f"{FAKE}:Middle.passthrough_lane", factory=True),
        SpanTarget("low", f"{FAKE}:leaf"),
    ])
    tracer.on = True
    lane = fake_program.Middle().passthrough_lane()
    assert lane(7) == 7
    # Spanned by make_lane's wrapper; passthrough_lane must not span it again.
    assert _row(tracer, "Middle.make_lane") == {"calls": 1, "incl": 10, "self": 7, "children": 1}
    assert _row(tracer, "Middle.passthrough_lane")["calls"] == 0


def test_unresolved_targets_are_skipped_and_counted(tracer):
    tracer.install([
        SpanTarget("low", f"{FAKE}:leaf"),
        SpanTarget("gone", f"{FAKE}:Middle.no_such_method"),
        SpanTarget("gone", f"{FAKE}:no_such_function"),
        SpanTarget("gone", "perfbench.tests.no_such_module:thing"),
        SpanTarget("gone", "repro.lsm.db:LsmDB.no_such_method"),
    ])
    assert len(tracer.unresolved) == 4
    assert tracer.entry_id("leaf") is not None
    tracer.on = True
    assert fake_program.leaf() == "leaf"


def test_uninstall_restores_the_program(tracer):
    original = fake_program.Middle.work
    tracer.install([SpanTarget("mid", f"{FAKE}:Middle.work")])
    assert fake_program.Middle.work is not original
    tracer.uninstall()
    assert fake_program.Middle.work is original


def test_units_and_on_return_hooks(tracer):
    seen = []
    tracer.install([
        SpanTarget("low", f"{FAKE}:leaf", units=lambda args, result: len(result),
                   on_return=lambda tr, result, dur: seen.append((result, dur))),
    ])
    tracer.on = True
    fake_program.leaf()
    assert tracer.units[tracer.entry_id("leaf")] == 4
    assert seen == [("leaf", 3)]


def test_calibration_measures_a_positive_overhead():
    tracer = SpanTracer()
    tracer.calibrate(iterations=2_000)
    assert tracer.overhead_in_ns + tracer.overhead_out_ns > 0
    assert not tracer.on and not tracer.raw
    assert sum(tracer.calls) == 0
