"""Tests of the stack benchmark itself (``python -m pytest benchmarks/stack -q``).

One ``run.py --quick`` drives all four workloads end to end (tiny counts,
one repeat); the rest pins the pieces a wrong number could hide in: the
tracer's self-time arithmetic, where open-loop latency starts, input
determinism, and that a traced run leaves no wrapper behind.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402,F401 - puts the checkout's src/ on sys.path
import loadgen  # noqa: E402
import run  # noqa: E402
import tracer as stack_tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("stack")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads((out / "BENCH_stack.json").read_text()), out


def test_names_match_benchmark_json(quick):
    stdout, document, out = quick
    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(document["workloads"]) == workloads == list(run.WORKLOADS)
    for name in workloads:
        entry = document["workloads"][name]
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == end_to_end
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} == per_layer
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert (out / f"TRACE_{name}.json").exists()
        assert f"== {name} ==" in stdout
    for name in [*end_to_end, *per_layer]:
        assert stdout.count(f"  {name} ") == len(workloads), name
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0


def test_workloads_separate_the_layers(quick):
    _, document, _ = quick
    direct = document["workloads"]["direct_core"]["per_layer"]
    assert all(row["value"] == 0 for name, row in direct.items() if name.startswith("serve."))
    assert direct["control.service.calls_per_op"]["value"] > 0
    light = document["workloads"]["serve_light"]["per_layer"]
    assert light["gateway.twophase.fastpath_ratio"]["value"] == 1.0
    assert light["serve.frontier.wave_size_mean"]["value"] == loadgen.BATCH
    mixed = document["workloads"]["serve_mixed_open"]["per_layer"]
    assert mixed["serve.frontier.linger_wait_us_per_op"]["value"] > 0


class ScriptedClock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


def test_self_time_of_a_synchronous_nest():
    clock = ScriptedClock()
    tracer = stack_tracer.Tracer(clock)

    def probe():
        clock.spend(3)

    def inner():
        clock.spend(5)
        leaf()
        leaf()

    def outer():
        clock.spend(10)
        middle()
        clock.spend(1)

    leaf = tracer.aggregate(probe, "probe", "kernel", leaf=True)
    middle = tracer.span(inner, "inner", "middle")
    top = tracer.span(outer, "outer", "top", mint=True)
    tracer.mark()
    top()
    tracer.mark()
    ledger = stack_tracer.layer_ledger({"spans": tracer.spans, "marks": tracer.marks})
    assert ledger["layers"] == {
        "top": {"self_ns": 11, "calls": 1},
        "middle": {"self_ns": 5, "calls": 1},
        "kernel": {"self_ns": 6, "calls": 2},
    }
    by_name = {span[0]: dict(zip(stack_tracer.SPAN_FIELDS, span)) for span in tracer.spans}
    assert by_name["outer"]["parent"] == -1 and by_name["outer"]["request_id"] == 0
    assert by_name["inner"]["request_id"] == 0
    assert by_name["inner"]["child"] == 6 and by_name["outer"]["child"] == 11


def test_self_time_of_async_siblings_on_two_tasks():
    clock = ScriptedClock()
    tracer = stack_tracer.Tracer(clock)
    gate: list[asyncio.Future[None]] = []

    def work():
        clock.spend(4)

    step = tracer.span(work, "step", "inner")

    async def request(cost: int) -> None:
        clock.spend(cost)
        step()
        waiter = asyncio.get_running_loop().create_future()
        gate.append(waiter)
        await waiter  # parked: the sibling's time must not count here
        clock.spend(cost)
        step()

    traced = tracer.aspan(request, "request", "outer", mint=True)

    async def scenario() -> None:
        first = asyncio.ensure_future(traced(10))
        second = asyncio.ensure_future(traced(100))
        await asyncio.sleep(0)
        clock.spend(1000)  # the loop idles; nobody is running
        for waiter in gate:
            waiter.set_result(None)
        await asyncio.gather(first, second)

    tracer.mark()
    asyncio.run(scenario())
    tracer.mark()
    spans = [dict(zip(stack_tracer.SPAN_FIELDS, span)) for span in tracer.spans]
    requests = sorted(
        (span for span in spans if span["name"] == "request"), key=lambda span: span["active"]
    )
    assert [span["active"] for span in requests] == [2 * (10 + 4), 2 * (100 + 4)]
    assert [span["child"] for span in requests] == [8, 8]
    assert requests[0]["request_id"] != requests[1]["request_id"]
    # Both were parked across the idle gap, so wall duration exceeds active time.
    assert all(span["end"] - span["start"] >= span["active"] + 1000 for span in requests)
    steps = [span for span in spans if span["name"] == "step"]
    assert sorted(span["request_id"] for span in steps) == [0, 0, 1, 1]
    ledger = stack_tracer.layer_ledger({"spans": tracer.spans, "marks": tracer.marks})
    assert ledger["layers"]["outer"] == {"self_ns": 2 * 10 + 2 * 100, "calls": 2}
    assert ledger["layers"]["inner"] == {"self_ns": 16, "calls": 4}
    assert ledger["wait_ns"]["request"] >= 2000


def test_wrappers_are_removed_after_a_traced_run():
    targets = stack_tracer.CORE_TARGETS + stack_tracer.SERVE_TARGETS
    owners = [(stack_tracer.resolve(path), attr) for path, attr, *_ in targets]
    before = [owner.__dict__.get(attr) for owner, attr in owners]
    tracer = stack_tracer.Tracer()
    tracer.install(targets)
    assert any(owner.__dict__.get(attr) is not was for (owner, attr), was in zip(owners, before))
    tracer.uninstall()
    assert all(owner.__dict__.get(attr) is was for (owner, attr), was in zip(owners, before))


def test_open_loop_latency_starts_at_the_due_instant():
    service_s = 0.05

    async def slow_server(reader, writer):
        body = b'{"ports":{"ingress":[1]}}'
        while await reader.readline():
            while (await reader.readline()).strip():
                pass
            await asyncio.sleep(service_s)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        writer.close()

    async def scenario() -> loadgen.Outcome:
        server = await asyncio.start_server(slow_server, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        conn = await loadgen.Connection.open(port)
        # Both operations are due at once on one connection: the second
        # waits a whole service time in the generator before it is sent.
        schedule = [(0.0, "headroom", 0), (0.0, "headroom", 0)]
        out = await loadgen.open_loop([conn], schedule, loadgen.MixedClient([]))
        await conn.close()
        server.close()
        await server.wait_closed()
        return out

    out = asyncio.run(scenario())
    assert out.failed == 0 and out.ops == 2
    latencies = sorted(sample[0] for sample in out.samples)
    assert service_s <= latencies[0] < 1.7 * service_s
    assert latencies[1] >= 1.9 * service_s
    assert max(out.late_s) < service_s / 2  # the generator itself was on time


def test_inputs_depend_on_the_seed_and_nothing_else():
    for workload in run.WORKLOADS:
        plans = [run.make_plan(workload, seed, 3.0, 96, 1.0) for seed in (7, 7, 8)]
        assert plans[0]["digest"] == plans[1]["digest"], workload
        assert plans[0]["digest"] != plans[2]["digest"], workload
        assert json.dumps(plans[0], sort_keys=True) == json.dumps(plans[1], sort_keys=True)


def test_compare_reads_noise_as_unresolved():
    import compare

    def row(value, low, high):
        return {"value": value, "repeats": [low, value, high]}

    assert compare.verdict(row(100, 99, 101), row(101, 100, 102), "lower", 0.10) == "unchanged"
    assert compare.verdict(row(100, 99, 101), row(120, 119, 121), "lower", 0.10) == "regressed"
    assert compare.verdict(row(100, 99, 101), row(80, 79, 81), "lower", 0.10) == "improved"
    assert compare.verdict(row(100, 80, 130), row(104, 85, 125), "lower", 0.10) == "unresolved"
    assert compare.verdict(row(100, 99, 101), row(120, 119, 121), "higher", 0.10) == "improved"
