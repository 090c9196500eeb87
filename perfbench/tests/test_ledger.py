"""Overhead attribution: the layers are reconciled with the untraced whole."""

from __future__ import annotations

import pytest

from perfbench.ledger import attribute_overhead


def _entry(calls: int, self_ns: int, children: int = 0) -> dict:
    return {"calls": calls, "self_ns": self_ns, "children": children}


def _ledger(**layers) -> dict:
    return {
        "ops": 10,
        "calibration": {"overhead_in_ns": 100.0, "overhead_out_ns": 300.0},
        "metrics": {"trace.host_us_per_op": 1.0},  # 10 000 ns traced, in all
        "layers": {name.replace("_", "."): {"entries": entries}
                   for name, entries in layers.items()},
    }


def test_layers_sum_to_the_untraced_whole_and_parts_to_the_traced_whole():
    ledger = _ledger(
        lsm_db={"lane": _entry(calls=10, self_ns=5_000, children=10)},
        lsm_bloom={"may_contain": _entry(calls=10, self_ns=3_000)},
        perfbench_oracle={"check_read": _entry(calls=10, self_ns=1_500)},
    )
    m = attribute_overhead(ledger, untraced_us_per_op=0.5)  # 5 000 ns untraced
    layers = m["lsm.db.self_us_per_op"] + m["lsm.bloom.self_us_per_op"]
    assert layers == pytest.approx(0.5)
    # Overhead is removed in the calibrated 100 : 300 shape: lsm.db carries
    # 10 calls + 10 children (4 000 units), lsm.bloom 10 calls (1 000 units).
    removed_db = 0.5 - m["lsm.db.self_us_per_op"]
    removed_bloom = 0.3 - m["lsm.bloom.self_us_per_op"]
    assert removed_db / removed_bloom == pytest.approx(4.0)
    assert m["trace.span_overhead_us_per_op"] == pytest.approx(0.3)
    # The oracle's own spans are never a program layer: they stay in the residual.
    assert m["residual.self_us_per_op"] == pytest.approx(1.0 - 0.5)
    assert sum(v for k, v in m.items() if k.endswith(".self_us_per_op")) == pytest.approx(1.0)


def test_a_layer_never_goes_negative():
    ledger = _ledger(
        lsm_db={"lane": _entry(calls=1, self_ns=9_000)},
        obs_metrics={"inc": _entry(calls=1_000, self_ns=500)},
    )
    m = attribute_overhead(ledger, untraced_us_per_op=0.85)
    assert m["obs.metrics.self_us_per_op"] == 0.0
    assert m["lsm.db.self_us_per_op"] > 0


def test_nothing_is_removed_when_tracing_was_free():
    ledger = _ledger(lsm_db={"lane": _entry(calls=10, self_ns=4_000)})
    m = attribute_overhead(ledger, untraced_us_per_op=0.5)
    assert m["lsm.db.self_us_per_op"] == pytest.approx(0.4)
    assert m["trace.span_overhead_us_per_op"] == 0.0
