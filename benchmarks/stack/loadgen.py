"""The benchmark's own load generator: HTTP client, closed and open loops.

One process, one asyncio loop, at most ``CONNECTIONS`` keep-alive
connections, no threads.  Nothing here imports ``repro`` — the program
is reached over the socket only.

Closed loop (``serve_light``, ``serve_hot``): each connection sends its
next request only after the previous answer arrived; requests are handed
out in input order to whichever connection is free.  Open loop
(``serve_mixed_open``): operations become due on a seeded Poisson
schedule whatever the program does; a due operation waits in the
generator's queue while both connections are busy and its latency is
timed from its *due* instant, so a stall is charged to every request it
delays.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Generator connections (= ``nproc`` of the box the benchmark was sized on).
CONNECTIONS = 2
BATCH = 16

#: Simulated seconds a reservation must still have to live to be picked
#: for a cancel: the two in-flight operations may move the service clock.
CANCEL_MARGIN_S = 10.0


class TransportError(Exception):
    """The connection broke or the peer answered something unparsable."""


class Connection:
    """One keep-alive HTTP/1.1 connection with byte accounting."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.bytes_out = 0
        self.bytes_in = 0

    @classmethod
    async def open(cls, port: int) -> Connection:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def roundtrip(self, request: bytes) -> tuple[int, bytes]:
        """Send one pre-rendered request; returns ``(status, body)``."""
        try:
            self.writer.write(request)
            self.bytes_out += len(request)
            head = await self.reader.readuntil(b"\r\n\r\n")
            status = int(head[9:12])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                if line[:15].lower() == b"content-length:":
                    length = int(line[15:])
            body = await self.reader.readexactly(length) if length else b""
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            raise TransportError(str(exc)) from exc
        self.bytes_in += len(head) + length
        return status, body

    async def close(self) -> None:
        self.writer.close()
        with contextlib.suppress(OSError):
            await self.writer.wait_closed()


def render(method: str, path: str, payload: Any = None) -> bytes:
    """A complete HTTP/1.1 request as bytes (built outside timed loops)."""
    body = b"" if payload is None else json.dumps(payload, separators=(",", ":")).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n"
    if body:
        head += "Content-Type: application/json\r\n"
    return head.encode() + b"\r\n" + body


def render_batches(submissions: list[dict[str, Any]]) -> list[bytes]:
    return [
        render("POST", "/v1/reservations/batch", {"submissions": submissions[i : i + BATCH]})
        for i in range(0, len(submissions), BATCH)
    ]


@dataclass
class Outcome:
    """What one timed (or warm-up) loop observed."""

    ops: int = 0
    attempted: int = 0
    accepted: int = 0
    decided: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    #: (latency_s, stage) per answered request.
    samples: list[tuple[float, int]] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    #: (due, finish, stage) per open-loop operation, for the backlog test.
    timeline: list[tuple[float, float, int]] = field(default_factory=list)
    cancelled: list[int] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(why)


def check_decision(decision: dict[str, Any], sent: dict[str, Any], out: Outcome) -> None:
    """One decision against the submission that caused it."""
    outcome = decision.get("outcome")
    if outcome == "accepted":
        alloc = decision.get("allocation") or {}
        ok = (
            alloc.get("ingress") == sent["ingress"]
            and alloc.get("egress") == sent["egress"]
            and alloc.get("bw", 0.0) > 0.0
            and alloc.get("sigma", -1.0) >= sent["at"] - 1e-6
            and alloc.get("tau", float("inf")) <= sent["deadline"] * (1 + 1e-9) + 1e-6
            and abs(alloc["bw"] * (alloc["tau"] - alloc["sigma"]) - sent["volume"])
            <= 1e-6 * sent["volume"]
        )
        if not ok:
            out.fail(1, f"allocation does not serve its request: {decision}")
            return
        out.accepted += 1
        out.decided += 1
    elif outcome == "rejected":
        out.decided += 1
    else:
        out.fail(1, f"undecided slot: {decision}")


async def closed_loop(
    connections: list[Connection],
    requests: list[bytes],
    submissions: list[dict[str, Any]],
) -> Outcome:
    """Push every batch request through, one in flight per connection."""
    out = Outcome(attempted=len(submissions))
    cursor = iter(range(len(requests)))

    async def worker(conn: Connection) -> None:
        answered_at: float | None = None
        for index in cursor:
            sent = submissions[index * BATCH : (index + 1) * BATCH]
            start = time.perf_counter()
            if answered_at is not None:
                out.late_s.append(start - answered_at)
            try:
                status, body = await conn.roundtrip(requests[index])
            except TransportError as exc:
                out.fail(len(sent), f"transport: {exc}")
                return
            answered_at = time.perf_counter()
            if status != 200:
                out.fail(len(sent), f"batch answered {status}: {body[:200]!r}")
                continue
            decisions = json.loads(body).get("decisions", [])
            if len(decisions) != len(sent):
                out.fail(len(sent), f"{len(decisions)} decisions for {len(sent)} submissions")
                continue
            before = out.failed
            for decision, submission in zip(decisions, sent):
                check_decision(decision, submission, out)
            out.ops += len(sent) - (out.failed - before)
            out.samples.append((answered_at - start, 0))

    out.started = time.perf_counter()
    await asyncio.gather(*(worker(conn) for conn in connections))
    out.finished = time.perf_counter()
    unanswered = out.attempted - out.ops - out.failed
    if unanswered > 0:
        out.fail(unanswered, f"{unanswered} submissions unanswered")
    return out


class MixedClient:
    """State the open-loop mix needs across operations: rids to act on."""

    def __init__(self, submissions: list[dict[str, Any]]) -> None:
        self.submissions = iter(submissions)
        #: (rid, tau) of accepted, not yet cancelled reservations, oldest first.
        self.live: deque[tuple[int, float]] = deque()
        self.known: list[int] = []
        self.sim_now = 0.0
        self.reads = 0

    def build(self, kind: str) -> tuple[str, bytes, Any]:
        """Render the next operation of ``kind``; falls back to a read."""
        if kind == "submit":
            sent = next(self.submissions)
            self.sim_now = max(self.sim_now, sent["at"])
            return kind, render("POST", "/v1/reservations", sent), sent
        if kind == "cancel":
            while self.live and self.live[0][1] <= self.sim_now + CANCEL_MARGIN_S:
                self.live.popleft()
            if self.live:
                rid, _ = self.live.popleft()
                return kind, render("DELETE", f"/v1/reservations/{rid}"), rid
            kind = "status"
        if kind == "status" and self.known:
            self.reads += 1
            rid = self.known[(self.reads * 7919) % len(self.known)]
            return kind, render("GET", f"/v1/reservations/{rid}"), rid
        return "headroom", render("GET", "/v1/headroom"), None

    def check(self, kind: str, status: int, body: bytes, context: Any, out: Outcome) -> None:
        payload = json.loads(body) if body else {}
        if kind == "submit":
            if status not in (200, 201):
                out.fail(1, f"submit answered {status}: {body[:200]!r}")
                return
            before = out.accepted
            check_decision(payload, context, out)
            if "rid" in payload:
                self.known.append(payload["rid"])
            if out.accepted > before:
                self.live.append((payload["rid"], payload["allocation"]["tau"]))
        elif kind == "cancel":
            if status != 200 or payload.get("released") is not True:
                out.fail(1, f"cancel of {context} answered {status}: {body[:200]!r}")
            else:
                out.cancelled.append(context)
        elif kind == "status":
            if status != 200 or payload.get("rid") != context:
                out.fail(1, f"status of {context} answered {status}: {body[:200]!r}")
        elif status != 200 or len(payload.get("ports", {}).get("ingress", ())) == 0:
            out.fail(1, f"headroom answered {status}: {body[:200]!r}")


async def open_loop(
    connections: list[Connection],
    schedule: list[tuple[float, str, int]],
    client: MixedClient,
) -> Outcome:
    """Run a due-time schedule; latency counts from each due instant."""
    out = Outcome(attempted=len(schedule))
    queue: asyncio.Queue[tuple[float, str, int] | None] = asyncio.Queue()

    async def worker(conn: Connection) -> None:
        while (item := await queue.get()) is not None:
            due, kind, stage = item
            kind, request, context = client.build(kind)
            try:
                status, body = await conn.roundtrip(request)
            except TransportError as exc:
                out.fail(1, f"transport: {exc}")
                return
            finish = time.perf_counter()
            before = out.failed
            client.check(kind, status, body, context, out)
            if out.failed == before:
                out.ops += 1
                out.samples.append((finish - due, stage))
            out.timeline.append((due, finish, stage))

    workers = [asyncio.ensure_future(worker(conn)) for conn in connections]
    out.started = origin = time.perf_counter()
    for offset, kind, stage in schedule:
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        out.late_s.append(max(0.0, time.perf_counter() - due))
        queue.put_nowait((due, kind, stage))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    out.finished = time.perf_counter()
    unanswered = out.attempted - out.ops - out.failed
    if unanswered > 0:
        out.fail(unanswered, f"{unanswered} operations unanswered")
    return out


async def verify_cancelled(conn: Connection, rids: list[int], out: Outcome) -> None:
    """Every cancelled rid must read back as cancelled (untimed)."""
    for rid in rids:
        try:
            status, body = await conn.roundtrip(render("GET", f"/v1/reservations/{rid}"))
        except TransportError as exc:
            out.fail(1, f"transport: {exc}")
            return
        state = json.loads(body).get("state") if status == 200 else None
        if state != "cancelled":
            out.fail(1, f"rid {rid} reads back {state!r} after cancel")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0 for no samples."""
    return float(np.percentile(values, q)) if values else 0.0
