"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


def _choices(command, dest):
    """The values ``command``'s argument ``dest`` offers."""
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return next(a for a in commands.choices[command]._actions if a.dest == dest).choices


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-a-figure"])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.scheduler == "window"
        assert args.t_step == 400.0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "cumulated-slots" in out

    def test_run_small_figure(self, capsys):
        code = main(["run", "fig5", "--requests", "100", "--seeds", "0", "--no-chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_run_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(
            ["run", "fig4", "--requests", "100", "--seeds", "0", "--csv", str(csv_path), "--no-chart"]
        )
        assert code == 0
        assert csv_path.exists()
        assert "load" in csv_path.read_text().splitlines()[0]

    def test_run_chart_printed(self, capsys):
        main(["run", "fig5", "--requests", "100", "--seeds", "0"])
        out = capsys.readouterr().out
        assert "|" in out  # chart grid

    def test_claims_exit_code(self, capsys):
        code = main(["claims", "--requests", "400", "--seeds", "0"])
        out = capsys.readouterr().out
        assert "claim" in out
        assert code in (0, 1)

    def test_schedule_flexible(self, capsys):
        code = main(["schedule", "--scheduler", "window", "--requests", "100", "--gap", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accept rate" in out
        assert "verified" in out

    def test_schedule_rigid(self, capsys):
        code = main(["schedule", "--scheduler", "cumulated-slots", "--requests", "100", "--load", "4"])
        assert code == 0
        assert "accept rate" in capsys.readouterr().out

    def test_schedule_policy_value(self, capsys):
        code = main(["schedule", "--scheduler", "greedy", "--policy", "0.8", "--requests", "80"])
        assert code == 0

    @pytest.mark.parametrize(
        "policy, message",
        [
            ("f=abc", "malformed policy name 'f=abc'"),
            ("2", "tuning factor f must be in (0, 1], got 2.0"),
            ("fastest", "unknown policy name 'fastest'"),
        ],
    )
    def test_a_refused_policy_is_one_line_and_exit_2(self, capsys, policy, message):
        code = main(["schedule", "--scheduler", "greedy", "--policy", policy, "--requests", "20"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"grid-bandwidth: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["bookahead", "guaranteed-profile", "retry-greedy"])
    def test_every_flexible_scheduler_runs_the_policy_given(self, name, capsys):
        code = main(["schedule", "--scheduler", name, "--policy", "0.5", "--requests", "20"])
        assert code == 0
        scheduler = capsys.readouterr().out.splitlines()[0]
        assert scheduler.startswith(f"scheduler:            {name}[f=0.5")

    @pytest.mark.parametrize(
        "name, policy, message",
        [
            ("bookahead", "f=abc", "malformed policy name 'f=abc'"),
            ("fcfs-rigid", "0.5", "scheduler 'fcfs-rigid': unused options ['policy']"),
        ],
    )
    def test_a_policy_no_scheduler_uses_is_refused(self, capsys, name, policy, message):
        code = main(["schedule", "--scheduler", name, "--policy", policy, "--requests", "20"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"grid-bandwidth: {message}\n"
        assert captured.out == ""

    def test_gantt(self, capsys):
        code = main(["gantt", "--requests", "8", "--rows", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gantt" in out and "legend" in out

    def test_gantt_with_occupancy(self, capsys):
        code = main(["gantt", "--requests", "8", "--occupancy"])
        assert code == 0
        assert "occupancy" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(["compare", "window", "greedy", "--requests", "120", "--seeds", "0", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "paired difference" in out
        assert "p-value" in out

    def test_plan(self, capsys):
        code = main(["plan", "--target", "0.5", "--requests", "100", "--seeds", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity scale" in out

    def test_plan_unreachable(self, capsys):
        code = main(["plan", "--target", "1.0", "--gap", "0.01", "--requests", "200", "--seeds", "0"])
        out = capsys.readouterr().out
        assert code == 1 or "capacity scale" in out

    def test_compare_needs_two_seeds(self, capsys):
        code = main(["compare", "greedy", "window", "--requests", "30", "--seeds", "0"])
        assert code == 1
        assert "needs at least two seeds" in capsys.readouterr().out


class TestEverySchedulerOnOffer:
    """Each command runs every scheduler it offers on its workload."""

    @pytest.mark.parametrize("name", _choices("schedule", "scheduler"))
    def test_schedule(self, name, capsys):
        assert main(["schedule", "--scheduler", name, "--requests", "30"]) == 0

    @pytest.mark.parametrize("name", _choices("gantt", "scheduler"))
    def test_gantt(self, name, capsys):
        assert main(["gantt", "--scheduler", name, "--requests", "8"]) == 0

    @pytest.mark.parametrize("name", _choices("compare", "a"))
    def test_compare(self, name, capsys):
        argv = ["compare", name, "greedy", "--requests", "30", "--seeds", "0", "1"]
        assert main(argv) == 0

    @pytest.mark.parametrize(
        "argv", [["gantt", "--scheduler", "fcfs-rigid"], ["compare", "greedy", "localsearch"]]
    )
    def test_flexible_workloads_refuse_rigid_schedulers(self, argv, capsys):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
