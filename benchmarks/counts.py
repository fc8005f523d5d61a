"""Exact per-decision call counts of the served path.

Drives the stack benchmark's streams in-process, as
``benchmarks/footprint.py`` does (its :func:`~footprint.make_app`: the
benchmark server's ``ServeApp`` on a ``LogicalClock``, a journal on disk,
and its :func:`~footprint.serve`: batch POSTs of 16 through
``ServeApp.dispatch``), with ``sys.setprofile`` counting every call
after a warm-up wave.  Per decision of the ``serve_light`` stream
(``inputs.light_stream``) and of the ``serve_hot`` one
(``inputs.hot_stream``) it prints:

- Python calls and C calls, and bytecode instructions run (``sys.settrace``
  opcode events: work that calls nothing, such as building a ``dict``,
  shows there);
- Python calls by layer, the module prefix of the function called
  (``serve``, ``gateway``, ``core.booking``, ``core.ledger``,
  ``core.capacity``, ``obs``, ``schedulers``, the rest of ``repro``, and
  everything outside it: ``asyncio``, ``json``, ...);
- ``Port.blocker`` probes (profiler events on its code, not a wrapper,
  so counting adds no call);
- journal bytes, and ``write`` calls on the journal's file per wave.

Wall time varies by several per cent between runs of unchanged code;
these counts do not: with ``PYTHONHASHSEED=0`` (the script re-executes
itself under it when it is unset) every run prints the same text, so a
counter that moves is a change to the path, however small.  The script
exits 1 when a light decision takes more than :data:`LIGHT_LIMIT` Python
calls or a hot one more than :data:`HOT_LIMIT`.

Run from the repository root::

    PYTHONPATH=src python benchmarks/counts.py --quick

``--quick`` counts :data:`QUICK` decisions per stream (CI diffs its output
against ``benchmarks/results/COUNTS_quick.txt``); without it, the
footprint's :data:`~footprint.DECISIONS`; ``--decisions N`` any other
number.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import CodeType, FrameType
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "benchmarks" / "stack"))

from footprint import DECISIONS, SEED, WAVE, make_app, serve  # noqa: E402
from inputs import hot_stream, light_stream  # noqa: E402

from repro.core.ledger import Port  # noqa: E402

#: Decisions per stream under ``--quick``.
QUICK = 2048
#: The most Python calls a light / hot decision may take.
LIGHT_LIMIT, HOT_LIMIT = 60.0, 75.0
#: The layers Python calls are reported by, most specific prefix first.
LAYERS = (
    "serve", "gateway", "core.booking", "core.ledger", "core.capacity", "obs", "schedulers",
)  # fmt: skip
SOURCE = ROOT / "src" / "repro"


def layer_of(code: CodeType) -> str:
    """The reported layer of a function by the file that defines it."""
    path = Path(code.co_filename)
    if not path.is_relative_to(SOURCE):
        return "outside repro"
    module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
    for layer in LAYERS:
        if module == layer or module.startswith(layer + "."):
            return layer
    return "repro (other)"


class Counts:
    """A ``sys.setprofile`` hook tallying calls (see the module docstring)."""

    def __init__(self, journal_handle: Any) -> None:
        self.python = 0
        self.c = 0
        self.opcodes = 0
        self.by_code: Counter[CodeType] = Counter()
        self.writes = 0
        self._handle = journal_handle
        self._blocker = Port.blocker.__code__

    def __call__(self, frame: FrameType, event: str, arg: Any) -> None:
        if event == "call":
            self.python += 1
            self.by_code[frame.f_code] += 1
        elif event == "c_call":
            self.c += 1
            if arg.__name__ == "write" and getattr(arg, "__self__", None) is self._handle:
                self.writes += 1

    def trace(self, frame: FrameType, event: str, arg: Any) -> Any:
        """A ``sys.settrace`` hook: every new frame reports its opcodes."""
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._opcode

    def _opcode(self, frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            self.opcodes += 1
        return self._opcode

    def layers(self) -> Counter[str]:
        by_layer: Counter[str] = Counter()
        for code, calls in self.by_code.items():
            by_layer[layer_of(code)] += calls
        return by_layer


def count(bodies: list[dict[str, Any]], workdir: Path) -> tuple[int, int, Counts, int]:
    """Serve ``bodies`` on a fresh app with its journal under ``workdir``,
    counting every call after the warm-up wave; returns the decisions and
    waves counted, the counts and the journal bytes they wrote."""
    path = Path(tempfile.mkdtemp(dir=workdir)) / "counts.journal.jsonl"
    app = make_app(path)
    serve(app, bodies[:WAVE])
    journal = app.journal
    journal._write()
    handle = journal._appender
    stats = app.gateway.stats
    decided, size = stats.submits, path.stat().st_size
    counts = Counts(handle)
    sys.settrace(counts.trace)
    sys.setprofile(counts)
    try:
        serve(app, bodies[WAVE:])
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    journal.close()
    decisions = stats.submits - decided
    waves = -(-(len(bodies) - WAVE) // WAVE)
    return decisions, waves, counts, path.stat().st_size - size


def report(name: str, decisions: int, waves: int, counts: Counts, journal_bytes: int) -> float:
    """Print one stream's counts; returns its Python calls per decision."""
    python = counts.python / decisions
    print(f"{name}: {decisions} decisions in {waves} waves of {WAVE} after a warm-up wave, "
          f"seed {SEED}")
    print(f"  python calls per decision  {python:10.4f}")
    print(f"  c calls per decision       {counts.c / decisions:10.4f}")
    print(f"  opcodes per decision       {counts.opcodes / decisions:10.4f}")
    layers = counts.layers()
    for layer in (*LAYERS, "repro (other)", "outside repro"):
        print(f"    {layer:<24} {layers[layer] / decisions:10.4f}")
    probes = counts.by_code[Port.blocker.__code__]
    print(f"  Port.blocker probes        {probes / decisions:10.4f}")
    print(f"  journal bytes per decision {journal_bytes / decisions:10.4f}")
    print(f"  journal writes per wave    {counts.writes / waves:10.4f}")
    return python


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--quick", action="store_true", help=f"{QUICK} decisions per stream")
    size.add_argument("--decisions", type=int, default=None, help="decisions per stream")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order sets and dicts: run under one fixed seed.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    n = QUICK if args.quick else args.decisions or DECISIONS
    over = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, stream, limit in (
            ("serve_light", light_stream, LIGHT_LIMIT), ("serve_hot", hot_stream, HOT_LIMIT),
        ):  # fmt: skip
            bodies = stream(SEED, n + WAVE)
            python = report(name, *count(bodies, Path(workdir)))
            if python > limit:
                over.append(f"{name} {python:.4f} > {limit:g}")
    if over:
        print(f"FAIL: Python calls per decision over the limit: {'; '.join(over)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
