"""Tests for ``repro.bench explain`` (attribution render and diff)."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.harness import RunResult, SystemConfig, run_experiment
from repro.workloads.ycsb import YCSBConfig


def make_result(seed, cache_fraction=0.10):
    return run_experiment(
        SystemConfig(system="prismdb", seed=seed, cache_fraction=cache_fraction),
        YCSBConfig.read_update(50, record_count=400, operation_count=800, seed=seed),
        label=f"explain-test-{seed}",
        attribution=True,
    )


@pytest.fixture(scope="module")
def artifact_pair(tmp_path_factory):
    """Two seeded smoke artifacts with attribution, saved to disk."""
    root = tmp_path_factory.mktemp("explain")
    paths = []
    # A starved cache in the candidate forces more device reads, so the
    # pair exhibits a real p99 delta for the diff to decompose.
    for seed, cache in ((7, 0.10), (21, 0.02)):
        result = make_result(seed, cache)
        path = str(root / f"run_{seed}.json")
        result.save(path)
        paths.append(path)
    return paths


def explain_main(argv):
    return main(["explain", *argv])


class TestSingleArtifact:
    def test_renders_non_empty_table(self, artifact_pair, capsys):
        assert explain_main([artifact_pair[0]]) == 0
        out = capsys.readouterr().out
        assert "Latency attribution" in out
        assert "component/tier" in out
        assert "p99" in out
        # At least one attributed component row is present.
        assert any(key in out for key in ("data/", "memtable/", "cpu/"))

    def test_json_dump_matches_artifact(self, artifact_pair, capsys):
        assert explain_main([artifact_pair[0], "--json"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped == RunResult.load(artifact_pair[0]).attribution

    def test_output_is_deterministic(self, artifact_pair, capsys):
        explain_main([artifact_pair[0]])
        first = capsys.readouterr().out
        explain_main([artifact_pair[0]])
        assert capsys.readouterr().out == first


class TestDiff:
    def test_diff_renders_and_exits_zero(self, artifact_pair, capsys):
        assert explain_main(artifact_pair) == 0
        out = capsys.readouterr().out
        assert "Attribution diff" in out
        assert "of the delta is explained" in out

    def test_p99_delta_at_least_90_percent_explained(self, artifact_pair, capsys):
        # Acceptance criterion: the p99 read-latency delta between two
        # seeded smokes is >= 90% attributed to named component/tier
        # buckets (exhaustive residual accounting makes it ~100%).
        assert explain_main(artifact_pair + ["--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["op"] == "read"
        assert diff["band"] == "p99"
        assert diff["delta_usec"] != 0.0
        assert diff["explained_fraction"] >= 0.90
        assert all("/" in c["key"] for c in diff["contributors"])

    def test_diff_is_deterministic(self, artifact_pair, capsys):
        explain_main(artifact_pair)
        first = capsys.readouterr().out
        explain_main(artifact_pair)
        assert capsys.readouterr().out == first

    def test_band_and_top_flags(self, artifact_pair, capsys):
        assert explain_main(artifact_pair + ["--band", "p50", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_unattributed_op_exits_two(self, artifact_pair, capsys):
        assert explain_main(artifact_pair + ["--op", "nope"]) == 2
        assert "no 'nope' ops attributed" in capsys.readouterr().err


class TestInputValidation:
    def test_artifact_without_attribution_exits_two(self, tmp_path, capsys):
        result = run_experiment(
            SystemConfig(system="rocksdb", seed=3),
            YCSBConfig.read_update(50, record_count=200, operation_count=200, seed=3),
        )
        path = str(tmp_path / "plain.json")
        result.save(path)
        assert explain_main([path]) == 2
        err = capsys.readouterr().err
        assert "no attribution data" in err
        assert "--attribution" in err  # upgrade hint names the flag

    def test_three_artifacts_rejected(self, artifact_pair, capsys):
        assert explain_main(artifact_pair + [artifact_pair[0]]) == 2
        assert "one or two artifacts" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert explain_main(["/nonexistent/run.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_attribution_block_exits_two(self, artifact_pair, tmp_path, capsys):
        # A block without its buckets must not surface as a traceback
        # (and exit 1, the regression code): one error line, exit 2.
        data = RunResult.load(artifact_pair[0]).to_json()
        data["attribution"] = {"schema": 1, "ops": {"read": {"count": 3}}}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert explain_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err
        assert "Traceback" not in err

    def test_block_recorded_with_another_slow_k_asks_for_a_rerecord(
        self, artifact_pair, tmp_path, capsys
    ):
        data = RunResult.load(artifact_pair[0]).to_json()
        data["attribution"]["slow_k"] = 16
        path = tmp_path / "slow_k16.json"
        path.write_text(json.dumps(data))
        assert explain_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "slow_k" in err
        assert "report --save FILE --attribution" in err
        assert "malformed" not in err
