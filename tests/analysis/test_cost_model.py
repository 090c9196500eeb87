"""Tests for the Fig. 4 / Table 3 cost model."""

import pytest

from repro.analysis import (
    default_level_profiles,
    enumerate_configs,
    evaluate_config,
    pareto_frontier,
    table3_costs,
)
from repro.common import MIB
from repro.errors import ConfigError


class TestLevelProfiles:
    def test_default_shape(self):
        profiles = default_level_profiles()
        assert len(profiles) == 5
        assert sum(p.read_fraction for p in profiles) == pytest.approx(1.0)

    def test_bottom_level_dominates_size(self):
        profiles = default_level_profiles()
        total = sum(p.size_bytes for p in profiles)
        assert profiles[-1].size_bytes / total > 0.8

    def test_sizes_follow_multiplier(self):
        profiles = default_level_profiles(size_multiplier=8)
        assert profiles[-1].size_bytes / profiles[-2].size_bytes == pytest.approx(8, rel=0.01)

    def test_mismatched_tuples_rejected(self):
        with pytest.raises(ConfigError):
            default_level_profiles(read_fractions=(0.5, 0.5))


class TestEvaluateConfig:
    def test_homogeneous_latency_equals_device(self):
        profiles = default_level_profiles()
        evaluation = evaluate_config("QQQQQ", profiles)
        assert evaluation.avg_read_latency_usec == pytest.approx(391.0)
        assert evaluation.is_homogeneous

    def test_faster_tops_lower_latency(self):
        profiles = default_level_profiles()
        het = evaluate_config("NNNTQ", profiles)
        qlc = evaluate_config("QQQQQ", profiles)
        nvm = evaluate_config("NNNNN", profiles)
        assert nvm.avg_read_latency_usec < het.avg_read_latency_usec < qlc.avg_read_latency_usec
        assert qlc.cost_dollars < het.cost_dollars < nvm.cost_dollars

    def test_bad_code_rejected(self):
        profiles = default_level_profiles()
        with pytest.raises(ConfigError):
            evaluate_config("NNX", profiles)
        with pytest.raises(ConfigError):
            evaluate_config("NNNTX", profiles)

    def test_high_write_rate_inflates_qlc_cost(self):
        cheap = evaluate_config("QQQQQ", default_level_profiles(total_write_rate_bps=1024))
        pricey = evaluate_config(
            "QQQQQ", default_level_profiles(total_write_rate_bps=50 * MIB)
        )
        assert pricey.cost_dollars > cheap.cost_dollars

    def test_table3_matches_paper_within_tolerance(self):
        # Paper: QQQQQ=$22, NNNTQ=$37, TTTTT=$89, NNNNN=$289.
        costs = table3_costs()
        paper = {"QQQQQ": 22, "NNNTQ": 37, "TTTTT": 89, "NNNNN": 289}
        for code, expected in paper.items():
            assert costs[code] == pytest.approx(expected, rel=0.10)

    def test_table3_ordering(self):
        costs = table3_costs()
        assert costs["QQQQQ"] < costs["NNNTQ"] < costs["TTTTT"] < costs["NNNNN"]


class TestEnumerationAndFrontier:
    def test_enumerates_all_243(self):
        evaluations = enumerate_configs()
        assert len(evaluations) == 243
        assert len({e.code for e in evaluations}) == 243

    def test_frontier_contains_extremes(self):
        frontier = pareto_frontier(enumerate_configs())
        codes = {e.code for e in frontier}
        assert "NNNNN" in codes  # fastest
        assert "QQQQQ" in codes  # cheapest

    def test_papers_default_config_is_efficient(self):
        frontier = pareto_frontier(enumerate_configs())
        assert "NNNTQ" in {e.code for e in frontier}

    def test_frontier_is_nondominated(self):
        frontier = pareto_frontier(enumerate_configs())
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (
                    b.avg_read_latency_usec <= a.avg_read_latency_usec
                    and b.cost_dollars <= a.cost_dollars
                    and (
                        b.avg_read_latency_usec < a.avg_read_latency_usec
                        or b.cost_dollars < a.cost_dollars
                    )
                )
                assert not dominates

    def test_frontier_sorted_by_latency(self):
        frontier = pareto_frontier(enumerate_configs())
        latencies = [e.avg_read_latency_usec for e in frontier]
        assert latencies == sorted(latencies)
