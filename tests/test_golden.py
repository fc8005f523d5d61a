"""Golden regression tests: pinned scheduler decisions.

The fixture ``tests/data/golden.json`` records, for one fixed seeded
workload per family, the exact accepted-request sets of every published
heuristic (and the main extensions).  Any change to a scheduler's
decisions — intended or not — fails these tests, forcing the change to be
recognised and the fixture regenerated deliberately (see the generation
snippet in the fixture's git history / this file's docstring).

Regenerate with::

    python - <<'PY'
    # ... see repository history: the block that produced tests/data/golden.json
    PY
"""

import json
from pathlib import Path

import pytest

from repro.core import verify_schedule
from repro.schedulers import RIGID_SCHEDULERS, make_scheduler
from repro.workload import paper_flexible_workload, paper_rigid_workload

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


def _problem(name):
    if name in RIGID_SCHEDULERS:
        p = GOLDEN["rigid_params"]
        return paper_rigid_workload(p["load"], p["n_requests"], seed=p["seed"])
    p = GOLDEN["flexible_params"]
    return paper_flexible_workload(p["mean_interarrival"], p["n_requests"], seed=p["seed"])


@pytest.mark.parametrize("name", sorted(GOLDEN["decisions"]))
def test_decisions_pinned(name):
    entry = GOLDEN["decisions"][name]
    problem = _problem(name)
    result = make_scheduler(name, **entry["options"]).schedule(problem)
    verify_schedule(problem.platform, problem.requests, result)
    assert sorted(result.accepted) == entry["accepted"], (
        f"{name} decisions changed; if intentional, regenerate tests/data/golden.json"
    )
    assert result.num_rejected == entry["num_rejected"]


def test_fixture_covers_all_published_heuristics():
    published = {"greedy", "window", "fcfs-rigid", "fifo-slots", "cumulated-slots", "minbw-slots", "minvol-slots"}
    assert published <= set(GOLDEN["decisions"])
