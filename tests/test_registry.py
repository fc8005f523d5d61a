"""Tests for the scheduler registry."""

import pytest

from repro.core import ConfigurationError
from repro.schedulers import (
    Scheduler,
    available_schedulers,
    make_scheduler,
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
        assert make_scheduler("greedy", policy=1.0).policy.f == 1.0

    def test_bad_policy(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("greedy", policy="fastest")

    def test_unused_options_flagged(self):
        with pytest.raises(ConfigurationError, match="unused options"):
            make_scheduler("fcfs-rigid", t_step=10.0)

    def test_cumulated_ablation_options(self):
        s = make_scheduler("cumulated-slots", use_priority=False)
        assert "nopriority" in s.name
