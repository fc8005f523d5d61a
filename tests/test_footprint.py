"""What a served decision leaves in memory.

A service that never stops must not grow with its history beyond the
state it serves: per decision that is one row of the gateway's ticket
table — numbers in columns, no object the collector has to walk.  A
served decision carries its submission as scalars from the edge to the
columns and builds no ``Ticket`` view, ``Request`` or ``Allocation``
(only a full search builds the last two, and they die with it).  Its
default telemetry keeps metrics only, so no telemetry
record (``_Submitted``, ``_Admission``, ``_Served``, ``_Flushed``) is
left behind: ``?explain=1`` rebuilds them by replaying the journal.  A
journal keeps no entry object: a file-backed one leaves its lines in the
file, their only copy, and one without a file holds them as text.

The tests run ``benchmarks/footprint.py`` — the ``serve_light`` shape,
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

#: GC-tracked objects a decision may leave: at most one per five (its
#: state is a row of numbers).
PER_DECISION = 0.2
#: What a run leaves whatever its length (the event loop's and the test
#: runner's leftovers, the measurement's own counter).
SLACK = 64
#: Bytes per decision the shipped SLO rules may retain beyond none at all
#: (tracemalloc's spread between two runs; one kept float is 24 bytes).
SLO_BYTES = 4.0


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


def test_a_decision_leaves_its_state_and_no_telemetry_record(tmp_path):
    tool = load_tool()
    bodies = tool.light_stream(1, 51 * tool.WAVE)
    decided, batches, left = tool.measure(bodies, tmp_path, by_site=False)
    assert decided == 50 * tool.WAVE and batches > 0
    grown = sum(left.values())
    assert grown <= PER_DECISION * decided + SLACK, str(dict(left))
    for name in ("Ticket", "Request", "Allocation"):
        assert left[name] == 0, name
    for name in ("_Submitted", "_Admission", "_Served", "_Flushed"):
        assert left[name] == 0, name


def test_the_shipped_slo_rules_keep_no_state_per_decision(tmp_path):
    """``grid-serve``'s defaults (1 shard, the default SLO rules) retain no
    more per decision than the same app without rules: a rule keeps
    counts, and a latency inside its ceiling is only counted."""
    tool = load_tool()
    bodies = tool.light_stream(1, 101 * tool.WAVE)
    shipped = tool.retained_per_decision(bodies, tmp_path, tool.SHIPPED)
    without = tool.retained_per_decision(bodies, tmp_path, tool.SHIPPED_NO_SLO)
    assert shipped <= without + SLO_BYTES, (shipped, without)


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


def test_the_collector_pauses_are_timed_per_generation(tmp_path):
    """The script times every collection of a served stream per
    generation, and takes its ``gc.callbacks`` hook out again."""
    tool = load_tool()
    bodies = tool.light_stream(1, 8 * tool.WAVE)
    gc_callbacks = list(gc.callbacks)
    decided, pauses = tool.collector_pauses(bodies, tmp_path)
    assert gc.callbacks == gc_callbacks and decided == len(bodies)
    assert sorted(pauses) == [0, 1, 2]
    assert all(p >= 0.0 for times in pauses.values() for p in times)


def test_the_hot_streams_search_counts_repeat_exactly(tmp_path):
    """The counts the script prints to show a search change asks the same
    questions: equal on a second run, and the probe wrappers are gone after.
    Every booking of that chaos-off stream commits on a proof: the search or
    the headroom test has just proved its step on both ports."""
    tool = load_tool()
    bodies = tool.hot_stream(1, 40 * tool.WAVE)
    blocker, proven = tool.Port.blocker, tool.Port.proven
    first = tool.search_counts(bodies, tmp_path / "first")
    assert tool.Port.blocker is blocker and tool.Port.proven is proven
    decided, searches, probes, candidates, bookings, proofs = first
    assert decided == len(bodies)
    assert 0 < searches <= decided and probes >= searches and candidates >= searches
    assert 0 < bookings == proofs
    assert tool.search_counts(bodies, tmp_path / "second") == first


def test_a_checkpoint_stays_under_its_size_bound(tmp_path):
    """The checkpoint a drain writes holds the ticket table and the port
    runs as packed columns: within ``footprint.CHECKPOINT_BYTES`` per
    decision (a JSON row per ticket took about 350)."""
    tool = load_tool()
    served, size, _, _ = tool.restart_cost(tool.light_stream(1, 64 * tool.WAVE), tmp_path)
    assert served == 64 * tool.WAVE
    assert size / served <= tool.CHECKPOINT_BYTES
