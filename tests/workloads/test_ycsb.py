"""Tests for the YCSB workload definition."""

from collections import Counter

import pytest

from request_ops import ops

from repro.errors import ConfigError
from repro.workloads.ycsb import OP_INSERT, OP_READ, OP_SCAN, OP_UPDATE, YCSBConfig, YCSBWorkload


class TestConfig:
    def test_defaults_are_papers_setup(self):
        config = YCSBConfig()
        assert config.read_proportion == 0.95
        assert config.update_proportion == 0.05
        assert config.distribution == "zipfian"
        assert config.zipf_theta == 0.99

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            YCSBConfig(read_proportion=0.5, update_proportion=0.2)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            YCSBConfig(record_count=0)
        with pytest.raises(ConfigError):
            YCSBConfig(value_bytes=0)
        with pytest.raises(ConfigError):
            YCSBConfig(operation_count=-1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(read_proportion=1.5, update_proportion=-0.5), "read_proportion must be in"),
            (dict(read_proportion=0.5, update_proportion=1.5, insert_proportion=-1.0),
             "update_proportion must be in"),
            (dict(read_proportion=0.5, update_proportion=0.5, insert_proportion=-0.2,
                  scan_proportion=0.2), "insert_proportion must be in"),
            (dict(read_proportion=0.5, update_proportion=0.5, insert_proportion=0.2,
                  scan_proportion=-0.2), "scan_proportion must be in"),
            (dict(warmup_operations=-3), "warmup_operations must be non-negative"),
            (dict(read_proportion=0.5, update_proportion=0.0, scan_proportion=0.5,
                  max_scan_length=0), "max_scan_length must be positive"),
        ],
        ids=["read", "update", "insert", "scan", "warmup", "max_scan_length"],
    )
    def test_a_bad_field_fails_where_the_config_is_built(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            YCSBConfig(**fields)

    def test_read_update_shorthand(self):
        config = YCSBConfig.read_update(80)
        assert config.read_proportion == pytest.approx(0.8)
        assert config.update_proportion == pytest.approx(0.2)
        with pytest.raises(ConfigError):
            YCSBConfig.read_update(101)


class TestStreams:
    def test_load_inserts_every_key_once(self):
        workload = YCSBWorkload(YCSBConfig(record_count=50, operation_count=0))
        requests = list(ops(workload.load_batches()))
        assert len(requests) == 50
        assert all(kind == OP_INSERT for kind, _, _, _ in requests)
        assert len({key for _, key, _, _ in requests}) == 50

    def test_key_format(self):
        workload = YCSBWorkload(YCSBConfig())
        assert workload.key(7) == b"user000000000007"

    def test_values_have_configured_size(self):
        workload = YCSBWorkload(YCSBConfig(record_count=10, operation_count=20, value_bytes=37))
        for _, _, value, _ in ops(workload.load_batches()):
            assert len(value) == 37

    def test_run_mix_matches_proportions(self):
        config = YCSBConfig(record_count=100, operation_count=4000)
        workload = YCSBWorkload(config)
        counts = Counter(kind for kind, _, _, _ in ops(workload.run_batches()))
        assert counts[OP_READ] / 4000 == pytest.approx(0.95, abs=0.02)
        assert counts[OP_UPDATE] / 4000 == pytest.approx(0.05, abs=0.02)

    def test_run_stream_deterministic(self):
        config = YCSBConfig(record_count=100, operation_count=200, seed=5)
        a = list(ops(YCSBWorkload(config).run_batches()))
        b = list(ops(YCSBWorkload(config).run_batches()))
        assert a == b

    def test_different_seeds_differ(self):
        reqs = lambda seed: [
            key
            for _, key, _, _ in ops(YCSBWorkload(
                YCSBConfig(record_count=100, operation_count=100, seed=seed)
            ).run_batches())
        ]
        assert reqs(1) != reqs(2)

    def test_warmup_differs_from_run(self):
        config = YCSBConfig(record_count=100, operation_count=100, warmup_operations=100)
        workload = YCSBWorkload(config)
        warmup = [key for _, key, _, _ in ops(workload.warmup_batches())]
        run = [key for _, key, _, _ in ops(workload.run_batches())]
        assert warmup != run
        assert len(warmup) == 100

    def test_keys_stay_in_keyspace(self):
        config = YCSBConfig(record_count=50, operation_count=500)
        workload = YCSBWorkload(config)
        valid = {workload.key(i) for i in range(50)}
        for _, key, _, _ in ops(workload.run_batches()):
            assert key in valid

    def test_inserts_extend_keyspace(self):
        config = YCSBConfig(
            record_count=50,
            operation_count=300,
            read_proportion=0.5,
            update_proportion=0.0,
            insert_proportion=0.5,
        )
        workload = YCSBWorkload(config)
        keys = {key for kind, key, _, _ in ops(workload.run_batches()) if kind == OP_INSERT}
        assert all(int(k[4:]) >= 50 for k in keys)

    def test_scan_requests(self):
        config = YCSBConfig(
            record_count=50,
            operation_count=200,
            read_proportion=0.5,
            update_proportion=0.0,
            scan_proportion=0.5,
            max_scan_length=10,
        )
        workload = YCSBWorkload(config)
        scans = [length for kind, _, _, length in ops(workload.run_batches()) if kind == OP_SCAN]
        assert scans
        assert all(1 <= length <= 10 for length in scans)

    def test_total_data_bytes_scales(self):
        small = YCSBWorkload(YCSBConfig(record_count=10, operation_count=0)).total_data_bytes()
        large = YCSBWorkload(YCSBConfig(record_count=100, operation_count=0)).total_data_bytes()
        assert large == 10 * small

    def test_latest_distribution_stream(self):
        config = YCSBConfig(
            record_count=200, operation_count=300, distribution="latest"
        )
        workload = YCSBWorkload(config)
        keys = [key for _, key, _, _ in ops(workload.run_batches())]
        # "latest" favours the end of the keyspace.
        hot = sum(1 for k in keys if int(k[4:]) > 150)
        assert hot > len(keys) * 0.4
