"""Reducing repeats: quiet-host estimate, spreads, and the identical-sim rule."""

from __future__ import annotations

import copy

import pytest

from perfbench import runner


def _repeat(slices, setup_s=3.0, sim_value=51.4) -> dict:
    wall = sum(s[0] for s in slices)
    cpu = sum(s[1] for s in slices)
    return {
        "workload": "read-hot",
        "sizes": {"records": 100_000},
        "host": {"setup_s": setup_s, "measured_s": wall, "cpu_s": cpu, "peak_rss_mb": 75.0,
                 "ops_measured": 2_000, "slices": slices},
        "sim": {"sim_throughput_kops": sim_value},
        "sim_counts": {},
        "check": {"attempted": 7_000, "failed": 0},
    }


def test_region_is_rebuilt_from_the_fastest_repeat_of_each_slice():
    repeats = [
        _repeat([[0.010, 0.010], [0.030, 0.029]], setup_s=2.9),   # burst in slice 2
        _repeat([[0.020, 0.019], [0.010, 0.010]], setup_s=3.1),   # burst in slice 1
        _repeat([[0.011, 0.011], [0.011, 0.011]], setup_s=4.3),
    ]
    metrics = runner.summarize(repeats)["metrics"]
    wall = metrics["host_us_per_op"]
    assert wall["value"] == pytest.approx(0.020 * 1e6 / 2_000)  # 0.010 + 0.010
    assert (wall["min"], wall["max"]) == (pytest.approx(11.0), pytest.approx(20.0))
    assert wall["n"] == 3
    # Dropping repeat 1 or 2 moves the estimate to 0.021 s; half of that shift.
    assert wall["spread"] == pytest.approx((0.021 - 0.020) / 0.020 / 2)
    assert metrics["host_cpu_us_per_op"]["value"] == pytest.approx(10.0)
    # Set-up and RSS report the median; one slow set-up does not move it.
    assert metrics["setup_s"]["value"] == 3.1
    assert metrics["setup_s"]["spread"] == pytest.approx(1.4826 * 0.2 / 3.1)
    assert metrics["sim_throughput_kops"]["value"] == 51.4
    assert metrics["failed_ops_frac"]["value"] == 0.0
    assert metrics["ops_measured"]["value"] == 2_000


def test_without_slices_the_fastest_repeat_is_reported():
    repeats = [_repeat([[0.5, 0.9]]), _repeat([[0.4, 0.8]]), _repeat([[0.6, 1.0]])]
    for repeat in repeats:
        del repeat["host"]["slices"]
    metrics = runner.summarize(repeats)["metrics"]
    assert metrics["host_us_per_op"]["value"] == pytest.approx(0.4 * 1e6 / 2_000)
    assert metrics["host_us_per_op"]["spread"] == pytest.approx((0.5 - 0.4) / 0.4 / 2)


def test_repeats_that_disagree_on_a_simulated_metric_fail_the_run():
    first = _repeat([[0.01, 0.01]])
    second = copy.deepcopy(first)
    second["sim"]["sim_throughput_kops"] = 51.5
    with pytest.raises(runner.SimMismatch):
        runner.summarize([first, second])
