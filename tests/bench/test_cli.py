"""Tests for the command-line entry point."""

import pytest

from repro.bench.cli import EXPERIMENTS, main
from repro.bench.harness import SystemConfig, run_experiment
from repro.workloads.ycsb import YCSBConfig


class TestCli:
    def test_list(self, capsys):
        # The bare command is the one listing; `list` and a bare `run` are not.
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig9a", "fig14"):
            assert name in out
        assert main(["list"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["run"]) == 2
        capsys.readouterr()

    def test_no_args_shows_help(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        # No bare-name shorthand: an unknown first word is argparse's error.
        assert main(["fig99"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_the_fleet_is_not_a_subcommand(self, capsys):
        # The fleet is a library (perfbench's fleet-mixed and tests/fleet run it).
        assert main(["fleet"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_analytic_experiments_run(self, capsys):
        assert main(["run", "table1", "table3"]) == 0
        out = capsys.readouterr().out
        assert "P/E cycles" in out
        assert "QQQQQ" in out

    def test_registry_covers_every_artifact(self):
        # Every table and figure in the paper's evaluation is present.
        expected = {
            "table1", "table2", "table3", "table4",
            "fig2a", "fig3", "fig4", "fig6",
            "fig9a", "fig9b", "fig10ab", "fig10cd",
            "fig11", "fig12", "fig13", "fig14",
        }
        assert expected <= set(EXPERIMENTS)

    def test_fig6_via_cli(self, capsys):
        assert main(["run", "fig6"]) == 0
        assert "clock3" in capsys.readouterr().out


WORKLOAD_ARGS = [
    "--records", "300", "--ops", "600", "--seed", "3",
    "--system", "prismdb", "--layout", "NNNTQ",
]


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """A sampled run artifact, written by `report --save`."""
    artifact = str(tmp_path_factory.mktemp("cli") / "run.json")
    assert main(["report", *WORKLOAD_ARGS, "--save", artifact,
                 "--sample-interval-ms", "0.2"]) == 0
    return artifact


class TestSubcommands:
    def test_run_subcommand_explicit(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "P/E cycles" in capsys.readouterr().out

    def test_run_unknown_is_usage_error(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("run", "report", "timeline", "compare"):
            assert sub in out

    def test_subcommand_help_exits_zero(self, capsys):
        for sub in ("run", "report", "timeline", "compare"):
            assert main([sub, "--help"]) == 0
            capsys.readouterr()

    def test_timeline_sparkline(self, saved_run, capsys):
        code = main(["timeline", saved_run])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput_kops" in out
        assert "samples" in out

    def test_timeline_list_series(self, saved_run, capsys):
        code = main(["timeline", saved_run, "--list-series"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput_kops" in out.splitlines()

    def test_timeline_unknown_series(self, saved_run, capsys):
        code = main(["timeline", saved_run, "--series", "bogus_series"])
        assert code == 2
        assert "unknown series" in capsys.readouterr().err

    def test_timeline_csv_to_file(self, saved_run, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        code = main(
            ["timeline", saved_run, "--format", "csv", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("t_ms,phase,")

    def test_report_save_then_timeline_and_compare_self(self, saved_run, tmp_path, capsys):
        code = main(
            ["timeline", saved_run, "--format", "json", "--out", str(tmp_path / "t.json")]
        )
        capsys.readouterr()
        assert code == 0
        # Deterministic run compared against itself: zero drift, exit 0.
        assert main(["compare", saved_run, saved_run]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

    def test_timeline_of_an_unsampled_run_is_error(self, tmp_path, capsys):
        artifact = str(tmp_path / "plain.json")
        run_experiment(
            SystemConfig(system="prismdb"),
            YCSBConfig.read_update(50, record_count=300, operation_count=300),
        ).save(artifact)
        assert main(["timeline", artifact]) == 2
        assert "has no timeline" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["timeline", "--records", "300"],
        ["run", "table1", "--profile"],
        ["report", "--slow-k", "8"],
        ["report", "--attr-sample-every", "2"],
    ])
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_compare_missing_file_is_error(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_report_save_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        code = main(
            ["report", *WORKLOAD_ARGS, "--save", str(artifact),
             "--sample-interval-ms", "0.2"]
        )
        capsys.readouterr()
        assert code == 0
        assert artifact.exists()

