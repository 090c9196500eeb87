"""Verdicts, refusals and exit codes of ``python -m perfbench compare``."""

from __future__ import annotations

import copy
import json

import pytest

from perfbench import compare as compare_mod
from perfbench.__main__ import main
from perfbench.metrics import E2E_BY_NAME


def _output(**host_us) -> dict:
    metrics = {
        "host_us_per_op": {"value": 50.0, "unit": "us", "spread": 0.02, "n": 3},
        "sim_throughput_kops": {"value": 100.0, "unit": "kops", "n": 3},
        "failed_ops_frac": {"value": 0.0, "unit": "fraction", "n": 3},
        "ops_measured": {"value": 50_000, "unit": "ops", "n": 3},
    }
    metrics["host_us_per_op"].update(host_us)
    return {
        "schema": 1, "seed": 1, "quick": False,
        "environment": {"git_commit": "abc", "loadavg_1m_at_start": 0.1},
        "workloads": {"read-hot": {"sizes": {"records": 100_000}, "metrics": metrics}},
    }


def _verdicts(base, new) -> dict:
    return {row["metric"]: row["verdict"] for row in compare_mod.compare(base, new)}


def test_identical_runs_are_within():
    assert set(_verdicts(_output(), _output()).values()) == {"within"}


def test_host_metric_verdicts_follow_bound_and_spread():
    base = _output()
    assert _verdicts(base, _output(value=54.0))["host_us_per_op"] == "within"  # +8 % < 10 %
    assert _verdicts(base, _output(value=60.0))["host_us_per_op"] == "worse"
    assert _verdicts(base, _output(value=40.0))["host_us_per_op"] == "better"
    # Inside the bound but the repeats scatter wider than the bound.
    assert _verdicts(base, _output(value=51.0, spread=0.15))["host_us_per_op"] == "unresolved"
    # Outside the bound but not outside the scatter.
    assert _verdicts(base, _output(value=60.0, spread=0.30))["host_us_per_op"] == "unresolved"


def test_direction_is_respected_for_higher_is_better():
    new = _output()
    new["workloads"]["read-hot"]["metrics"]["sim_throughput_kops"]["value"] = 90.0
    assert _verdicts(_output(), new)["sim_throughput_kops"] == "worse"
    new["workloads"]["read-hot"]["metrics"]["sim_throughput_kops"]["value"] = 110.0
    assert _verdicts(_output(), new)["sim_throughput_kops"] == "better"


def test_zero_bound_metrics_flag_any_worsening():
    new = _output()
    new["workloads"]["read-hot"]["metrics"]["failed_ops_frac"]["value"] = 1e-4
    new["workloads"]["read-hot"]["metrics"]["ops_measured"]["value"] = 49_999
    verdicts = _verdicts(_output(), new)
    assert verdicts["failed_ops_frac"] == "worse"
    assert verdicts["ops_measured"] == "worse"
    assert E2E_BY_NAME["failed_ops_frac"].bound == 0.0


def test_environment_is_not_compared():
    new = _output()
    new["environment"] = {"git_commit": "def", "loadavg_1m_at_start": 9.0}
    assert set(_verdicts(_output(), new).values()) == {"within"}


@pytest.mark.parametrize("mutate", [
    lambda out: out.update(seed=2),
    lambda out: out.update(quick=True),
    lambda out: out["workloads"]["read-hot"]["sizes"].update(records=10),
])
def test_refuses_different_settings(mutate):
    new = copy.deepcopy(_output())
    mutate(new)
    with pytest.raises(compare_mod.Incomparable):
        compare_mod.compare(_output(), new)


def test_cli_exit_codes(tmp_path, capsys):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    base = write("base.json", _output())
    assert main(["compare", base, write("same.json", _output())]) == 0
    assert "ratio" not in capsys.readouterr().err
    assert main(["compare", base, write("worse.json", _output(value=70.0))]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "x of 50" in out  # every ratio names its base
    other_seed = _output()
    other_seed["seed"] = 7
    assert main(["compare", base, write("seed.json", other_seed)]) == 2
