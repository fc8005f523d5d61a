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

from repro.obs import RunTelemetry, Telemetry, use_telemetry

RESULTS_DIR = Path(__file__).parent / "results"
TELEMETRY_DIR = RESULTS_DIR / "telemetry"

#: Caps keep a long benchmark run memory-bounded; evictions are counted
#: inside the artifact ("dropped") rather than silently lost.
TELEMETRY_MAX_EVENTS = 20_000
TELEMETRY_MAX_SPANS = 20_000


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(autouse=True)
def run_telemetry(request: pytest.FixtureRequest):
    """Attach a capped telemetry capture to every benchmark.

    Whatever instrumented code the bench touches is recorded and written to
    ``benchmarks/results/telemetry/<test>.json`` on teardown (skipped when
    the bench recorded nothing).  Benches that measure the *cost* of
    telemetry itself (bench_obs_overhead) install their own handles inside
    the test body via nested ``use_telemetry`` calls, which shadow this one.
    """
    telemetry = Telemetry(max_events=TELEMETRY_MAX_EVENTS, max_spans=TELEMETRY_MAX_SPANS)
    with use_telemetry(telemetry):
        yield telemetry
    if telemetry.is_empty():
        return
    artifact = RunTelemetry(request.node.name)
    artifact.capture("bench", telemetry)
    TELEMETRY_DIR.mkdir(parents=True, exist_ok=True)
    artifact.save(TELEMETRY_DIR / f"{request.node.name}.json")


def save_artifacts(results_dir: Path, name: str, table, chart: str = "") -> None:
    """Persist a figure's table (text + CSV) and optional chart."""
    text = table.to_text()
    if chart:
        text += "\n\n" + chart
    (results_dir / f"{name}.txt").write_text(text + "\n")
    (results_dir / f"{name}.csv").write_text(table.to_csv())
