"""What a served decision leaves in memory.

A service that never stops must not grow with its history beyond the
state it serves: per decision that is the ticket, its request and its
allocation, plus one flat telemetry record per ring entry
(``_Submitted``, ``_Admission``, ``_Served``).  A journal keeps no
entry object: a file-backed one leaves its lines in the file, their only
copy, and one without a file holds them as text.

Both tests run ``benchmarks/footprint.py`` — the ``serve_light`` shape,
a ``ServeApp`` as the stack benchmark's server configures it answering
batch POSTs of 16 through ``dispatch`` — on a short stream; the script
prints the same measurement at full size, by type and in bytes.
"""

import gc
import importlib.util
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "footprint.py"

#: GC-tracked objects a decision may leave: its ticket, request and
#: allocation, and its three telemetry records.
PER_DECISION = 6
#: ... and a flushed batch: one ``_Flushed`` record, its ``gateway.batch``
#: span and event.
PER_BATCH = 1
#: What a run leaves whatever its length (the event loop's and the test
#: runner's leftovers, the measurement's own counter).
SLACK = 64


def load_tool():
    spec = importlib.util.spec_from_file_location("footprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def held(root):
    """GC-tracked objects reachable from ``root``'s attributes, classes,
    modules and functions excluded (the journal's own resident objects)."""
    seen, todo, count = set(), list(vars(root).values()), 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or not gc.is_tracked(obj):
            continue
        if isinstance(obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        count += 1
        todo.extend(gc.get_referents(obj))
    return count


def test_a_decision_leaves_its_state_and_one_flat_record_per_ring_entry(tmp_path):
    tool = load_tool()
    bodies = tool.light_stream(1, 51 * tool.WAVE)
    decided, batches, left = tool.measure(bodies, tmp_path, by_site=False)
    assert decided == 50 * tool.WAVE
    grown = sum(left.values())
    assert grown <= PER_DECISION * decided + PER_BATCH * batches + SLACK, str(dict(left))
    for name in ("Ticket", "Request", "Allocation", "_Submitted", "_Admission", "_Served"):
        assert left[name] == decided, name
    assert left["_Flushed"] == batches


@pytest.mark.parametrize("on_file", [True, False], ids=["file", "memory"])
def test_a_journal_holds_nothing_that_grows_with_its_length(tmp_path, on_file):
    """A file journal's lines are in the file; one without a file holds
    them as strings, which the collector does not track, in one list."""
    tool = load_tool()
    resident = []
    for waves in (4, 40):
        app = tool.make_app(tmp_path / f"{waves}.journal.jsonl" if on_file else None)
        tool.serve(app, tool.light_stream(2, waves * tool.WAVE))
        assert len(app.journal) == waves * tool.WAVE
        resident.append(held(app.journal))
        app.journal.close()
    assert resident[0] == resident[1]
