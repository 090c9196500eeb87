"""Tests for the memoizing experiment runner (quick scale)."""

import pytest

from repro.bench.experiments import ExperimentScale, ExperimentRunner


@pytest.fixture(scope="module")
def tiny_runner():
    scale = ExperimentScale(
        record_count=1_500,
        operation_count=1_200,
        aging_operations=1_200,
        settle_operations=600,
    )
    return ExperimentRunner(scale)


class TestMemoization:
    def test_same_key_returns_same_object(self, tiny_runner):
        a = tiny_runner.run("rocksdb", "NNNTQ")
        b = tiny_runner.run("rocksdb", "NNNTQ")
        assert a is b

    def test_explicit_default_returns_same_object(self, tiny_runner):
        a = tiny_runner.run("prismdb", "NNNTQ")
        b = tiny_runner.run("prismdb", "NNNTQ", pinning_threshold=0.10)
        assert a is b

    def test_different_layout_is_a_new_run(self, tiny_runner):
        a = tiny_runner.run("rocksdb", "NNNTQ")
        b = tiny_runner.run("rocksdb", "QQQQQ")
        assert a is not b
        assert b.layout_code == "QQQQQ"

    def test_prism_overrides_key_separately(self, tiny_runner):
        a = tiny_runner.run("prismdb", "NNNTQ")
        b = tiny_runner.run("prismdb", "NNNTQ", prism_overrides={"up_compaction": False})
        assert a is not b

    def test_row_cache_share_keys_separately(self, tiny_runner):
        a = tiny_runner.run("rocksdb", "NNNTQ")
        b = tiny_runner.run("rocksdb", "NNNTQ", row_cache_share=0.5)
        assert a is not b

    def test_results_carry_metrics(self, tiny_runner):
        result = tiny_runner.run("rocksdb", "NNNTQ")
        assert result.operations == 1_200
        assert result.throughput_kops > 0
        assert result.read_latency.count > 0


class TestWorkloadConfigBuilder:
    def test_mix_translation(self, tiny_runner):
        config = tiny_runner.workload_config(read_pct=80)
        assert config.read_proportion == pytest.approx(0.8)
        assert config.update_proportion == pytest.approx(0.2)

    def test_distribution_passthrough(self, tiny_runner):
        config = tiny_runner.workload_config(distribution="latest", zipf_theta=0.8)
        assert config.distribution == "latest"
        assert config.zipf_theta == 0.8
