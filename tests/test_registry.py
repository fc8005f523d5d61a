"""Tests for the scheduler registry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import ConfigurationError
from repro.schedulers import (
    FractionOfMaxPolicy,
    Scheduler,
    available_schedulers,
    make_scheduler,
    policy_from_name,
)


class TestMakeScheduler:
    def test_all_names_construct(self):
        for name in available_schedulers():
            scheduler = make_scheduler(name)
            assert isinstance(scheduler, Scheduler)

    def test_expected_names_present(self):
        names = available_schedulers()
        for expected in ("fcfs-rigid", "fifo-slots", "cumulated-slots", "minbw-slots", "minvol-slots", "greedy", "window"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            make_scheduler("nope")

    def test_window_options(self):
        s = make_scheduler("window", t_step=123.0, policy=0.5)
        assert s.t_step == 123.0
        assert s.policy.f == 0.5

    def test_policy_spellings(self):
        assert make_scheduler("greedy", policy="min-bw").policy.name == "min-bw"
        assert make_scheduler("greedy", policy="f=0.8").policy.f == 0.8
        assert make_scheduler("greedy", policy="0.8").policy.f == 0.8
        assert make_scheduler("greedy", policy=1.0).policy.f == 1.0
        assert make_scheduler("greedy", policy=None).policy.name == "min-bw"

    def test_bad_policy(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("greedy", policy="fastest")

    @pytest.mark.parametrize("name", ["greedy", "window", "bookahead", "retry-greedy"])
    @pytest.mark.parametrize(
        "policy, message",
        [
            ("f=abc", "malformed policy name 'f=abc'"),
            ("f=", "malformed policy name"),
            ("1.5", r"must be in \(0, 1\]"),
            (True, "unknown bandwidth policy True"),
            (False, "unknown bandwidth policy False"),
            (2.0, r"must be in \(0, 1\]"),
            ([0.5], "unknown bandwidth policy"),
        ],
    )
    def test_a_policy_that_names_none_is_a_configuration_error(self, name, policy, message):
        with pytest.raises(ConfigurationError, match=message):
            make_scheduler(name, policy=policy)

    def test_policy_strings_are_the_journal_names(self):
        for policy in (FractionOfMaxPolicy(1 / 3), FractionOfMaxPolicy(0.8)):
            built = make_scheduler("bookahead", policy=policy.name).policy
            assert built == policy == policy_from_name(policy.name)

    def test_unused_options_flagged(self):
        with pytest.raises(ConfigurationError, match="unused options"):
            make_scheduler("fcfs-rigid", t_step=10.0)

    def test_cumulated_ablation_options(self):
        s = make_scheduler("cumulated-slots", use_priority=False)
        assert "nopriority" in s.name


class TestLazyFactories:
    """Each factory imports its scheduler's module when it is called."""

    PROBE = (
        "import sys\n"
        "from repro.schedulers import RIGID_SCHEDULERS, available_schedulers, make_scheduler\n"
        "available_schedulers(); sorted(RIGID_SCHEDULERS)\n"
        "before = {m for m in sys.modules if m.startswith('repro.schedulers.')}\n"
        "make_scheduler('bookahead')\n"
        "after = {m for m in sys.modules if m.startswith('repro.schedulers.')}\n"
        "print(sorted(before)); print(sorted(after - before)); print('numpy' in sys.modules)\n"
    )

    def test_bookahead_loads_the_book_ahead_search_alone(self):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        before, added, numpy = done.stdout.splitlines()
        assert before == "['repro.schedulers.registry']"
        assert added == (
            "['repro.schedulers.advance', 'repro.schedulers.base', 'repro.schedulers.policies']"
        )
        assert numpy == "False"
