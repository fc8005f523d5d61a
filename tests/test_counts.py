"""``benchmarks/counts.py`` prints the same counts on every run.

The counter is the served path's cost gate: exact call counts per
decision, where wall time moves by several per cent between runs of
unchanged code.  A count that moved between two runs of one tree would
make every diff of ``benchmarks/results/COUNTS_quick.txt`` noise, so
two runs on a short stream must print the same text, and it stays under
its own limits.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "counts.py"


def run_counter(decisions: int) -> subprocess.CompletedProcess:
    # Unset, so that the script's re-execution under PYTHONHASHSEED=0 runs too.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--decisions", str(decisions)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )  # fmt: skip


def test_two_runs_print_the_same_counts():
    first, second = run_counter(64), run_counter(64)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert [line.split(":")[0] for line in lines if not line.startswith(" ")] == [
        "serve_light", "serve_hot",
    ]  # fmt: skip
    for label in ("python calls per decision", "core.ledger", "Port.blocker probes",
                  "journal writes per wave"):  # fmt: skip
        assert sum(label in line for line in lines) == 2
