"""Tests for the command-line entry point."""

from repro.bench.cli import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig9a", "fig14"):
            assert name in out

    def test_no_args_shows_help(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        # No bare-name shorthand: an unknown first word is argparse's error.
        assert main(["fig99"]) == 2
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
        for sub in ("run", "report", "timeline", "compare", "list"):
            assert sub in out

    def test_subcommand_help_exits_zero(self, capsys):
        for sub in ("run", "report", "timeline", "compare", "list"):
            assert main([sub, "--help"]) == 0
            capsys.readouterr()

    def test_timeline_sparkline(self, capsys):
        code = main(["timeline", *WORKLOAD_ARGS, "--interval-ms", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput_kops" in out
        assert "samples" in out

    def test_timeline_list_series(self, capsys):
        code = main(
            ["timeline", *WORKLOAD_ARGS, "--interval-ms", "0.2", "--list-series"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput_kops" in out.splitlines()

    def test_timeline_unknown_series(self, capsys):
        code = main(
            ["timeline", *WORKLOAD_ARGS, "--interval-ms", "0.2",
             "--series", "bogus_series"]
        )
        assert code == 2
        assert "unknown series" in capsys.readouterr().err

    def test_timeline_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        code = main(
            ["timeline", *WORKLOAD_ARGS, "--interval-ms", "0.2",
             "--format", "csv", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("t_ms,phase,")

    def test_timeline_save_then_compare_self(self, tmp_path, capsys):
        artifact = tmp_path / "run.json"
        code = main(
            ["timeline", *WORKLOAD_ARGS, "--interval-ms", "0.2",
             "--format", "json", "--out", str(tmp_path / "t.json"),
             "--save", str(artifact)]
        )
        capsys.readouterr()
        assert code == 0
        assert artifact.exists()
        # Re-render the saved artifact without running a fresh workload.
        assert main(["timeline", "--artifact", str(artifact)]) == 0
        capsys.readouterr()
        # Deterministic run compared against itself: zero drift, exit 0.
        assert main(["compare", str(artifact), str(artifact)]) == 0
        assert "REGRESSION" not in capsys.readouterr().out

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

    def test_run_with_profile_prints_report(self, capsys):
        code = main(["run", "table1", "--profile", "--profile-limit", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cProfile" in out
        assert "cumulative" in out
