"""Tests for the ``repro-sim`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["table2"]).command == "table2"
        assert parser.parse_args(["table3"]).command == "table3"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "online"
        assert args.v == 4000.0
        assert args.staleness_bound == 500.0

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "greedy"])


    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--backend", "loop"],
            ["scenario", "run", "paper-baseline", "--backend", "fleet"],
            ["jobs", "submit", "paper-baseline", "--backend", "loop"],
        ],
        ids=["simulate", "scenario-run", "jobs-submit"],
    )
    def test_backend_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--no-fast-forward"],
            ["compare", "--no-fast-forward"],
            ["sweep", "--no-fast-forward"],
            ["scenario", "run", "paper-baseline", "--no-fast-forward"],
            ["jobs", "submit", "paper-baseline", "--no-fast-forward"],
        ],
        ids=["simulate", "compare", "sweep", "scenario-run", "jobs-submit"],
    )
    def test_no_fast_forward_flag_is_gone(self, argv, capsys):
        """Quiet regions are always fast-forwarded: no switch to turn it off."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--no-fast-forward" in capsys.readouterr().err


class TestStaticCommands:
    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "pixel2" in output and "candycrush" in output

    def test_table3_output(self, capsys):
        assert main(["table3"]) == 0
        output = capsys.readouterr().out
        assert "Overhead %" in output
        assert "nexus6" in output

    def test_fig1_output(self, capsys):
        assert main(["fig1", "--devices", "pixel2"]) == 0
        output = capsys.readouterr().out
        assert "co-running (J)" in output
        assert output.count("pixel2") >= 8

    def test_fig2_output(self, capsys):
        assert main(["fig2", "--apps", "tiktok", "--duration", "50"]) == 0
        output = capsys.readouterr().out
        assert "tiktok" in output and "degradation %" in output


class TestSimulationCommands:
    COMMON = ["--users", "4", "--slots", "250", "--arrival-prob", "0.01", "--seed", "1"]

    def test_simulate_online(self, capsys):
        assert main(["simulate", "--policy", "online", *self.COMMON]) == 0
        output = capsys.readouterr().out
        assert "Simulation summary" in output
        assert "energy (kJ)" in output

    def test_simulate_immediate_with_plot(self, capsys):
        assert main(["simulate", "--policy", "immediate", "--plot", *self.COMMON]) == 0
        output = capsys.readouterr().out
        assert "test accuracy vs time" in output

    def test_sweep(self, capsys):
        assert main(["sweep", *self.COMMON, "--v-values", "0", "100000"]) == 0
        output = capsys.readouterr().out
        assert "V sweep" in output
        assert "saving vs immediate %" in output

    def test_compare(self, capsys):
        assert main(["compare", *self.COMMON]) == 0
        output = capsys.readouterr().out
        assert "Policy comparison" in output
        for name in ("immediate", "sync", "offline", "online"):
            assert name in output
