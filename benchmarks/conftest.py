"""Shared helpers for the benchmark suite.

Every figure benchmark runs a scaled-down version of the corresponding
experiment (the full-size parameterisations are what EXPERIMENTS.md
records; run them via ``grid-bandwidth run <figure>``).  Each bench writes
its table to ``benchmarks/results/<name>.{txt,csv}`` so a benchmark run
leaves inspectable artefacts.  Those files are gitignored: the committed
copy of each table is the full-size ``results/<id>.txt``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifacts(results_dir: Path, name: str, table, chart: str = "") -> None:
    """Persist a figure's table (text + CSV) and optional chart."""
    text = table.to_text()
    if chart:
        text += "\n\n" + chart
    (results_dir / f"{name}.txt").write_text(text + "\n")
    (results_dir / f"{name}.csv").write_text(table.to_csv())
