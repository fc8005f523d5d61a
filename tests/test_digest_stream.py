"""``benchmarks/digest_stream.py`` is deterministic: the same cell over the
same stream digests to the same SHA-256, and its journal replays to its
final snapshot.  Otherwise a parent-vs-change comparison with it would
report noise."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "digest_stream.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("digest_stream", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_cells_digest_the_same_twice():
    tool = load_tool()
    cells = {cell[0]: cell for cell in tool.cells()}
    assert len(cells) == 20
    ops = tool.make_stream(5, 60)
    assert {op[0] for op in ops} >= {"submit", "cancel", "abort", "reshape", "degrade", "crash"}
    for name in ("gateway-s2-m-lossy", "service-m"):
        first = tool.run_cell(cells[name], ops, 5)
        assert first == tool.run_cell(cells[name], ops, 5)
        assert first[1], f"{name}: journal replay diverged"
