"""Run artifacts: JSON round-trips, compare gating, timeline determinism."""

import json
import math

import pytest

from repro.bench.compare import (
    compare_results,
    comparison_table,
    regressions,
)
from repro.bench.cli import main as cli_main
from repro.bench.harness import RunResult, SystemConfig, run_experiment
from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.workloads.ycsb import YCSBConfig


@pytest.fixture(scope="module")
def sampled_result():
    config = SystemConfig(system="prismdb", layout_code="NNNTQ", seed=7)
    workload = YCSBConfig.read_update(
        50, record_count=400, operation_count=800, seed=7
    )
    # The tiny workload spans only a few simulated ms; sample finely so
    # the timeline actually has rows.
    return run_experiment(
        config,
        workload,
        label="artifact-test",
        sample_interval_ms=0.2,
        attribution=True,
    )


class TestRunResultRoundTrip:
    def test_round_trip_is_bit_exact(self, sampled_result):
        blob = json.dumps(sampled_result.to_json(), allow_nan=False)
        rebuilt = RunResult.from_json(json.loads(blob))
        assert rebuilt == sampled_result
        # And it survives a second pass (no lossy re-encoding).
        assert json.dumps(rebuilt.to_json(), allow_nan=False) == blob

    def test_infinite_lifetime_encodes_as_string(self, sampled_result):
        assert any(
            math.isinf(v) for v in sampled_result.device_lifetime_years.values()
        ), "expected at least one tier with no write budget (infinite lifetime)"
        encoded = sampled_result.to_json()["device_lifetime_years"]
        assert "inf" in encoded.values()
        rebuilt = RunResult.from_json(sampled_result.to_json())
        assert rebuilt.device_lifetime_years == sampled_result.device_lifetime_years

    def test_per_level_keys_restored_as_ints(self, sampled_result):
        rebuilt = RunResult.from_json(sampled_result.to_json())
        assert rebuilt.per_level_write_bytes == sampled_result.per_level_write_bytes
        assert all(
            isinstance(k, int) for k in rebuilt.per_level_write_bytes
        )

    def test_save_load(self, sampled_result, tmp_path):
        path = tmp_path / "run.json"
        sampled_result.save(path)
        assert RunResult.load(path) == sampled_result

    def test_schema_mismatch_rejected(self, sampled_result):
        data = sampled_result.to_json()
        data["schema"] = 999
        with pytest.raises(ConfigError):
            RunResult.from_json(data)

    def test_timeline_attached_and_json_safe(self, sampled_result):
        timeline = sampled_result.timeline
        assert timeline["interval_ms"] == 0.2
        assert len(timeline["t_ms"]) > 0
        assert "run" in timeline["phase"]
        json.dumps(timeline, allow_nan=False)


class TestSchemaV2:
    def test_artifact_is_schema_v2_with_attribution(self, sampled_result):
        assert sampled_result.to_json()["schema"] == 2
        attr = sampled_result.attribution
        assert attr["schema"] == 1
        assert attr["ops"]["read"]["count"] > 0
        assert attr["slow_ops"], "worst-K slow-op log must be populated"

    def test_slow_op_round_trips_bit_exact_through_save_load(
        self, sampled_result, tmp_path
    ):
        # Acceptance criterion: a slow-op log entry — span events plus the
        # LSM state snapshot — survives save/load byte-for-byte.
        path = tmp_path / "run.json"
        sampled_result.save(path)
        reloaded = RunResult.load(path)
        original = sampled_result.attribution["slow_ops"]
        assert reloaded.attribution["slow_ops"] == original
        entry = original[0]
        assert entry["events"], "slow op must carry its span tree"
        assert "levels" in entry["state"]
        assert "backlog_bytes" in entry["state"]
        assert json.dumps(reloaded.attribution, sort_keys=True) == json.dumps(
            sampled_result.attribution, sort_keys=True
        )

    def test_attribution_is_deterministic(self):
        def one_run():
            config = SystemConfig(system="prismdb", layout_code="NNNTQ", seed=13)
            workload = YCSBConfig.read_update(
                50, record_count=300, operation_count=600, seed=13
            )
            return run_experiment(
                config, workload, label="det", attribution=True
            )

        first, second = one_run(), one_run()
        assert first.attribution == second.attribution


class TestRegistrySnapshotRoundTrip:
    def test_snapshot_round_trips_bit_exactly(self):
        registry = MetricsRegistry()
        registry.counter("device.write_bytes", tier="nvm").inc(12345)
        registry.gauge("tracker.occupancy").set(17.5)
        registry.histogram("op.latency_usec", op="read").observe(42.0)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot, allow_nan=False)) == snapshot


class TestCompare:
    def test_compare_self_zero_drift(self, sampled_result):
        other = RunResult.from_json(sampled_result.to_json())
        diffs = compare_results(sampled_result, other, tolerance_pct=0.0)
        assert diffs and not regressions(diffs)
        assert all(d.drift_pct == 0.0 and d.status == "ok" for d in diffs)

    def test_perturbed_p99_regresses(self, sampled_result):
        data = sampled_result.to_json()
        data["read_latency"]["p99"] *= 1.2
        perturbed = RunResult.from_json(data)
        diffs = compare_results(sampled_result, perturbed, tolerance_pct=5.0)
        bad = regressions(diffs)
        assert [d.metric for d in bad] == ["read_latency.p99"]
        assert bad[0].drift_pct == pytest.approx(20.0)

    def test_drift_within_tolerance_passes(self, sampled_result):
        data = sampled_result.to_json()
        data["read_latency"]["p99"] *= 1.02
        perturbed = RunResult.from_json(data)
        assert not regressions(
            compare_results(sampled_result, perturbed, tolerance_pct=5.0)
        )

    def test_improvement_is_not_regression(self, sampled_result):
        data = sampled_result.to_json()
        data["throughput_kops"] *= 2.0
        improved = RunResult.from_json(data)
        diffs = compare_results(sampled_result, improved, tolerance_pct=5.0)
        assert not regressions(diffs)
        by_name = {d.metric: d for d in diffs}
        assert by_name["throughput_kops"].status == "improved"

    def test_comparison_table_regressions_first(self, sampled_result):
        data = sampled_result.to_json()
        data["read_latency"]["p99"] *= 1.5
        perturbed = RunResult.from_json(data)
        diffs = compare_results(sampled_result, perturbed, tolerance_pct=5.0)
        headers, rows = comparison_table(diffs)
        assert rows[0][0] == "read_latency.p99"
        assert "REGRESSION" in rows[0][-1]

    def test_cli_exit_codes(self, sampled_result, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        sampled_result.save(base)
        sampled_result.save(cand)
        assert cli_main(["compare", str(base), str(cand)]) == 0
        data = sampled_result.to_json()
        data["read_latency"]["p99"] *= 1.2
        RunResult.from_json(data).save(cand)
        assert cli_main(["compare", str(base), str(cand), "--tolerance", "5"]) == 1
        assert cli_main(["compare", str(base), str(tmp_path / "missing.json")]) == 2


class TestMalformedArtifact:
    def test_missing_field_is_named(self):
        with pytest.raises(ConfigError, match="missing field 'system'"):
            RunResult.from_json({"schema": 2, "label": "x"})

    def test_malformed_field_is_named(self, sampled_result):
        data = sampled_result.to_json()
        data["read_latency"] = 5
        with pytest.raises(ConfigError, match="field 'read_latency' is malformed"):
            RunResult.from_json(data)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ConfigError, match="not an object"):
            RunResult.from_json([2, "x"])

    def test_compare_prints_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 2, "label": "x"}')
        assert cli_main(["compare", str(bad), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "error: run artifact is missing field 'system'\n"


class TestDeterminism:
    def test_same_seed_identical_timeline(self):
        def one_run():
            config = SystemConfig(system="prismdb", layout_code="NNNTQ", seed=11)
            workload = YCSBConfig.read_update(
                50, record_count=300, operation_count=600, seed=11
            )
            return run_experiment(
                config, workload, label="det", sample_interval_ms=0.2
            )

        first, second = one_run(), one_run()
        assert first.timeline == second.timeline
        assert first == second
