"""Tests for replicated-run statistics."""

import pytest

from repro.bench.harness import SystemConfig
from repro.bench.replication import _summarize, run_replicated
from repro.errors import ConfigError
from repro.workloads import YCSBConfig


class TestSummarize:
    def test_single_sample(self):
        summary = _summarize("x", [5.0])
        assert summary.mean == 5.0
        assert summary.stdev == 0.0
        assert summary.spread_fraction == 0.0

    def test_statistics(self):
        summary = _summarize("x", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.stdev == pytest.approx((2 / 3) ** 0.5)
        assert summary.spread_fraction == pytest.approx(1.0)

    def test_zero_mean_spread(self):
        assert _summarize("x", [0.0, 0.0]).spread_fraction == 0.0


class TestRunReplicated:
    def test_requires_seeds(self):
        with pytest.raises(ConfigError):
            run_replicated(SystemConfig(), YCSBConfig(record_count=10, operation_count=5), seeds=())

    def test_replicas_vary_but_agree_roughly(self):
        workload = YCSBConfig(record_count=2_000, operation_count=2_500)
        summaries = run_replicated(
            SystemConfig(system="rocksdb"), workload, seeds=(1, 2, 3)
        )
        throughput = summaries["throughput_kops"]
        assert len(throughput.samples) == 3
        assert throughput.mean > 0
        # Different seeds produce different-but-similar runs.
        assert len(set(throughput.samples)) > 1
        assert throughput.spread_fraction < 0.5
        assert set(summaries) == {
            "throughput_kops",
            "read_mean_usec",
            "read_p99_usec",
            "write_amplification",
        }

    def test_same_seed_is_deterministic(self):
        workload = YCSBConfig(record_count=1_500, operation_count=1_500)
        a = run_replicated(SystemConfig(system="rocksdb"), workload, seeds=(7,))
        b = run_replicated(SystemConfig(system="rocksdb"), workload, seeds=(7,))
        assert a["throughput_kops"].samples == b["throughput_kops"].samples
