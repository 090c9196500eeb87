"""BENCHMARK.json, the metric table and the span table agree with each
other and with the limits of the benchmark contract."""

from __future__ import annotations

import json
import re

from perfbench import ROOT
from perfbench.metrics import E2E, PER_LAYER
from perfbench.spans import CORE_LAYERS, FLEET_LAYERS, SPAN_TABLE
from perfbench.workloads import SPECS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_workloads_match_the_specs():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(SPECS)
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == SPECS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_matches_the_metric_table():
    listed = _benchmark()["end_to_end"]
    expected = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.contract_bound}
        for m in E2E if m.driver
    ]
    assert listed == expected
    assert 1 <= len(listed) <= 16
    setup = listed[0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert all(0 <= m["bound"] <= 0.25 for m in listed)
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_matches_the_metric_table():
    listed = _benchmark()["per_layer"]
    assert listed == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert 1 <= len(listed) <= 128


def test_names_and_units_are_well_formed_and_unique():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in bench["end_to_end"] + bench["per_layer"])


def test_every_span_belongs_to_a_reported_layer():
    layers = {target.layer for target in SPAN_TABLE}
    assert layers == set(CORE_LAYERS) | set(FLEET_LAYERS)
