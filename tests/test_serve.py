"""The service plane: wire format, routing, edges, and live endpoints.

Everything here runs on the deterministic :class:`LogicalClock` — the
wall clock never enters a test — and the end-to-end cases go through a
real listening socket via the loadgen HTTP client, so the bytes on the
wire are the bytes a real deployment sees.
"""

import asyncio
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.core.platform import Platform
from repro.gateway import EdgeLimit, Gateway
from repro.gateway.edge import EdgeLimiter
from repro.gateway.invariants import check_gateway
from repro.loadgen import ServiceClient
from repro.serve import ServeApp, ServeConfig
from repro.serve.api.v1.endpoints.reservations import MAX_PROFILE_SEGMENTS
from repro.serve.clock import LogicalClock, WallServiceClock
from repro.serve.http import HttpError, HttpRequest, HttpResponse, read_request, render_response
from repro.serve.routes import ROUTE_TABLE, Route, Router
from repro.serve.security import ApiKeyring


def run(coro):
    return asyncio.run(coro)


def make_app(**overrides) -> ServeApp:
    settings = dict(
        platform=Platform.uniform(4, 4, 100.0),
        num_shards=2,
        batch_size=4,
        slo_rules=(),
    )
    settings.update(overrides)
    return ServeApp(ServeConfig(**settings), clock=LogicalClock())


async def serving(app: ServeApp, *, api_key: str | None = None):
    host, port = await app.start()
    client = ServiceClient(host, port, api_key=api_key)
    await client.connect()
    return client


def body(ingress=0, egress=1, volume=10.0, deadline=200.0, at=0.0, **extra):
    fields = {
        "ingress": ingress,
        "egress": egress,
        "volume": volume,
        "deadline": deadline,
        "at": at,
    }
    fields.update(extra)
    return fields


NAN, INF = float("nan"), float("inf")

#: (field, value) pairs no submission may carry.  ``json.loads`` accepts the
#: NaN / Infinity literals and arbitrary-size integers, so every one of
#: these reaches ``parse_submission`` as a Python number (or not a number).
HOSTILE_NUMBERS = [
    *((name, bad) for name in ("volume", "deadline", "max_rate", "at") for bad in (NAN, INF, -INF)),
    ("at", "x"),
    ("at", None),
    ("at", [1]),
    ("max_rate", "x"),
    ("max_rate", [1]),
    ("ingress", INF),
    # int() took these for ports 2, 1 and 1.
    ("ingress", 2.7),
    ("ingress", True),
    ("egress", "1"),
    ("volume", 10**400),  # float(10**400) likewise
]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestHttpWireFormat:
    def _parse(self, raw: bytes):
        async def inner():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)

        return run(inner())

    def test_parses_request_line_query_headers_body(self):
        raw = (
            b"POST /v1/reservations?explain=1&x=a%20b HTTP/1.1\r\n"
            b"Host: h\r\nContent-Length: 2\r\nX-API-Key: k1\r\n\r\n{}"
        )
        request = self._parse(raw)
        assert request.method == "POST"
        assert request.path == "/v1/reservations"
        assert request.query == {"explain": "1", "x": "a b"}
        assert request.header("X-Api-Key") == "k1"
        assert request.json() == {}
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        assert self._parse(b"") is None

    def test_truncated_head_is_400(self):
        with pytest.raises(HttpError) as err:
            self._parse(b"GET /x HTTP/1.1\r\n")
        assert err.value.status == 400

    def test_oversized_body_is_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        with pytest.raises(HttpError) as err:
            self._parse(raw)
        assert err.value.status == 413

    @pytest.mark.parametrize("raw", [b"{nope", b'{"a": "\xff"}'], ids=["syntax", "not-utf8"])
    def test_undecodable_body_is_400(self, raw):
        # Bad UTF-8 is a ValueError but not a JSONDecodeError: it used to
        # escape ``dispatch`` and drop the connection.
        with pytest.raises(HttpError) as err:
            HttpRequest(method="POST", path="/", query={}, headers={}, body=raw).json()
        assert err.value.status == 400

    def test_brackets_nested_past_the_stack_are_400_on_the_socket(self):
        """200 KB of ``[[[[…`` is a ``RecursionError`` out of ``json.loads``,
        not a ``ValueError``: it used to kill the connection task unanswered
        and uncounted."""
        nested = b"[" * 100_000 + b"]" * 100_000

        async def main():
            app = make_app()
            client = await serving(app)
            try:
                head = f"POST /v1/reservations HTTP/1.1\r\nContent-Length: {len(nested)}\r\n\r\n"
                bad = await asyncio.wait_for(client._roundtrip(head.encode() + nested), 10.0)
                assert bad.status == 400 and "not valid JSON" in bad.json()["error"]
                # Same connection, still serving, and the refusal was counted.
                good = await client.request("POST", "/v1/reservations", payload=body())
                assert good.status in (200, 201) and client.reconnects == 0
                text = (await client.request("GET", "/metrics")).body.decode()
                assert (
                    'serve_requests_total{endpoint="/v1/reservations",method="POST",status="400"} 1'
                    in text
                )
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_chunked_refused(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HttpError) as err:
            self._parse(raw)
        assert err.value.status == 400

    def test_render_is_deterministic_and_framed(self):
        raw = render_response(
            HttpResponse(status=201, payload={"b": 1, "a": 2}), keep_alive=True
        )
        head, _, rendered = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 201 Created")
        assert rendered == b'{"a":2,"b":1}'
        assert f"Content-Length: {len(rendered)}".encode() in head

    def test_connection_close_honoured(self):
        raw = render_response(HttpResponse(payload={}), keep_alive=False)
        assert b"Connection: close" in raw


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouter:
    def test_binds_path_params(self):
        res = Router().resolve("GET", "/v1/reservations/42")
        assert res.handler is not None
        assert res.params == {"rid": "42"}
        assert res.pattern == "/v1/reservations/{rid}"

    def test_unknown_path_is_404_shape(self):
        res = Router().resolve("GET", "/nope")
        assert res.handler is None and not res.path_known

    def test_known_path_wrong_method_is_405_shape(self):
        res = Router().resolve("DELETE", "/healthz")
        assert res.handler is None and res.path_known

    def test_duplicate_routes_refused(self):
        with pytest.raises(ConfigurationError):
            Router(ROUTE_TABLE + (Route("GET", "/healthz", ROUTE_TABLE[0].handler),))

    def test_every_route_pattern_is_versioned_or_wellknown(self):
        for route in ROUTE_TABLE:
            assert route.pattern.startswith("/v1/") or route.pattern in (
                "/healthz",
                "/metrics",
            )


# ----------------------------------------------------------------------
# Security edges
# ----------------------------------------------------------------------
class TestSecurity:
    def test_open_access_maps_to_anonymous(self):
        ring = ApiKeyring()
        assert ring.open_access
        assert ring.client_for(None) == "anonymous"

    def test_closed_ring_requires_known_key(self):
        ring = ApiKeyring({"k1": "alice"})
        assert ring.client_for("k1") == "alice"
        assert ring.client_for("nope") is None
        assert ring.client_for(None) is None

    def test_generated_ring_is_deterministic(self):
        a, b = ApiKeyring.generate(3), ApiKeyring.generate(3)
        assert a.keys() == b.keys() and len(a) == 3

    def test_quota_refusal_carries_exact_refill_hint(self):
        limiter = EdgeLimiter(EdgeLimit(rate=1.0, burst=2.0))
        assert limiter.admit("c", 1.0, 0.0)
        assert limiter.admit("c", 1.0, 0.0)
        assert not limiter.admit("c", 1.0, 0.0)
        retry_after = limiter.retry_after("c", 1.0, 0.0)
        assert retry_after > 0
        # Boundary convention (mirrors hold_expired): at exactly
        # now + retry_after the same cost conforms.
        assert limiter.admit("c", 1.0, retry_after)


class TestEdgeRetryAfter:
    def test_refusal_hint_is_exact_refill_boundary(self):
        limiter = EdgeLimiter(EdgeLimit(rate=10.0, burst=50.0))
        assert limiter.admit("c", 50.0, 0.0)  # drain the burst
        assert not limiter.admit("c", 30.0, 0.0)
        hint = limiter.retry_after("c", 30.0, 0.0)
        assert hint == pytest.approx(3.0, abs=1e-6)
        # At exactly now + hint the refused volume conforms...
        assert limiter.admit("c", 30.0, hint)
        # ...and epsilon earlier it would not have (fresh limiter).
        fresh = EdgeLimiter(EdgeLimit(rate=10.0, burst=50.0))
        fresh.admit("d", 50.0, 0.0)
        assert not fresh.admit("d", 30.0, hint - 1e-3)

    def test_unknown_client_conforms_immediately(self):
        limiter = EdgeLimiter(EdgeLimit(rate=10.0, burst=50.0))
        assert limiter.retry_after("never-seen", 10.0, 5.0) == 0.0

    def test_oversized_volume_never_conforms(self):
        limiter = EdgeLimiter(EdgeLimit(rate=10.0, burst=50.0))
        limiter.admit("c", 1.0, 0.0)
        assert limiter.retry_after("c", 51.0, 0.0) == float("inf")

    def test_gateway_ticket_carries_hint(self):
        gateway = Gateway(
            Platform.uniform(2, 2, 100.0),
            batch_size=1,
            edge=EdgeLimit(rate=10.0, burst=20.0),
        )
        gateway.submit(ingress=0, egress=1, volume=20.0, deadline=100.0, now=0.0, client="c")
        ticket = gateway.submit(
            ingress=0, egress=1, volume=5.0, deadline=100.0, now=0.0, client="c"
        )
        assert ticket.edge_refused
        assert ticket.retry_after == pytest.approx(0.5, abs=1e-6)


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_logical_clock_is_running_max(self):
        clock = LogicalClock()
        assert clock.observe(5.0) == 5.0
        assert clock.observe(3.0) == 5.0  # the past never rewinds it
        assert clock.now() == 5.0

    def test_logical_perf_is_deterministic(self):
        clock = LogicalClock(step=0.5)
        assert clock.perf() == 0.5 and clock.perf() == 1.0

    def test_wall_clock_rejects_bad_timescale(self):
        with pytest.raises(ConfigurationError):
            WallServiceClock(timescale=0.0)

    def test_wall_clock_resumes_from_origin(self):
        clock = WallServiceClock(origin=120.0)
        assert clock.now() >= 120.0


# ----------------------------------------------------------------------
# Live endpoints (real socket, logical time)
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_submit_status_cancel_lifecycle(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                resp = await client.request(
                    "POST", "/v1/reservations", payload=body(volume=50.0, deadline=100.0)
                )
                assert resp.status == 201
                decision = resp.json()
                assert decision["outcome"] == "accepted"
                assert decision["allocation"]["bw"] > 0
                rid = decision["rid"]

                status = await client.request("GET", f"/v1/reservations/{rid}")
                assert status.status == 200
                assert status.json()["client"] == "anonymous"
                assert status.json()["request"]["volume"] == 50.0

                cancel = await client.request("DELETE", f"/v1/reservations/{rid}")
                assert cancel.status == 200 and cancel.json()["released"]

                missing = await client.request("GET", "/v1/reservations/9999")
                assert missing.status == 404
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_readmitted_reservation_has_a_status_page(self):
        """``GET`` answers for every rid ``DELETE`` accepts — a backlog
        re-admission included (it was 404 / 200)."""

        async def main():
            app = make_app(platform=Platform.uniform(4, 4, 1000.0), backlog_limit=4)
            client = await serving(app)
            try:
                app.gateway.crash_broker(1, now=0.0)
                resp = await client.request(
                    "POST", "/v1/reservations", payload=body(volume=1000.0, deadline=100.0, at=1.0)
                )
                assert resp.json()["reason"] == "broker-unavailable"
                app.gateway.restart_broker(1, now=app.clock.now())
                readmitted = app.gateway.reservations()[-1]
                assert readmitted.origin == resp.json()["rid"] and readmitted.confirmed

                status = await client.request("GET", f"/v1/reservations/{readmitted.rid}")
                assert status.status == 200 and status.json()["outcome"] == "accepted"
                assert status.json()["client"] == "anonymous"
                cancel = await client.request("DELETE", f"/v1/reservations/{readmitted.rid}")
                assert cancel.status == 200 and cancel.json()["released"]
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_batch_submit_decides_every_entry_in_order(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                submissions = [body(ingress=i % 4, egress=(i + 1) % 4) for i in range(10)]
                resp = await client.request(
                    "POST", "/v1/reservations/batch", payload={"submissions": submissions}
                )
                assert resp.status == 200
                decisions = resp.json()["decisions"]
                assert len(decisions) == 10
                assert [d["rid"] for d in decisions] == sorted(d["rid"] for d in decisions)
                assert all(d["outcome"] in ("accepted", "rejected") for d in decisions)
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_malformed_submission_is_400_not_wave_poison(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                bad = await client.request(
                    "POST", "/v1/reservations", payload=body(deadline=-5.0, at=0.0)
                )
                assert bad.status == 400
                missing = await client.request("POST", "/v1/reservations", payload={"ingress": 0})
                assert missing.status == 400
                # The gateway never saw either: a good submission still flows.
                good = await client.request("POST", "/v1/reservations", payload=body())
                assert good.status in (200, 201)
                assert app.gateway.stats.submits == 1
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_batch_entry_fails_alone_as_invalid_slot(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                submissions = [
                    body(at=1.0),
                    body(deadline=-5.0, at=1.0),  # structurally impossible
                    body(egress=2, at=1.0),
                ]
                resp = await client.request(
                    "POST", "/v1/reservations/batch", payload={"submissions": submissions}
                )
                assert resp.status == 200
                decisions = resp.json()["decisions"]
                assert len(decisions) == 3
                assert decisions[0]["outcome"] in ("accepted", "rejected")
                assert decisions[1]["outcome"] == "invalid"
                assert "error" in decisions[1]
                assert decisions[2]["outcome"] in ("accepted", "rejected")
                # The bad entry never reached the gateway.
                assert app.gateway.stats.submits == 2
            finally:
                await client.close()
                await app.drain()

        run(main())

    @pytest.mark.parametrize(
        ("name", "value"), HOSTILE_NUMBERS, ids=[f"{n}={v!r:.8}" for n, v in HOSTILE_NUMBERS]
    )
    def test_hostile_number_is_400_and_poisons_nothing(self, name, value, tmp_path):
        """``"volume": NaN`` used to pass every range check, be journaled
        write-ahead, raise inside the flush (hanging the caller *and* its
        wave-mates) and make the journal unreplayable; a non-numeric ``at``
        or ``max_rate`` killed the connection with a traceback."""
        journal_path = tmp_path / "hostile.journal.jsonl"

        async def main():
            app = make_app(journal_path=journal_path)
            host, port = await app.start()
            client, *mates = [ServiceClient(host, port) for _ in range(3)]
            for c in (client, *mates):
                await c.connect()
            try:
                # Single endpoint, two innocent submissions in the same wave.
                bad, *good = await asyncio.wait_for(
                    asyncio.gather(
                        client.request("POST", "/v1/reservations", payload=body(**{name: value})),
                        *(
                            mate.request("POST", "/v1/reservations", payload=body(egress=k))
                            for k, mate in enumerate(mates, start=2)
                        ),
                    ),
                    timeout=10.0,
                )
                assert bad.status == 400
                if isinstance(value, float) and name != "ingress":
                    assert f"{name} must be finite" in bad.json()["error"]
                assert all(r.status in (200, 201) for r in good)
                # Batch endpoint: the bad entry is ``invalid`` in its own slot.
                resp = await client.request(
                    "POST",
                    "/v1/reservations/batch",
                    payload={"submissions": [body(), body(**{name: value}), body(egress=2)]},
                )
                assert resp.status == 200
                outcomes = [d["outcome"] for d in resp.json()["decisions"]]
                assert outcomes[1] == "invalid"
                assert set(outcomes[::2]) <= {"accepted", "rejected"}
                # The refusal was answered on the connection it came in on
                # and counted like any other request.
                assert client.reconnects == 0
                text = (await client.request("GET", "/metrics")).body.decode()
                assert (
                    'serve_requests_total{endpoint="/v1/reservations",method="POST",status="400"} 1'
                    in text
                )
            finally:
                for c in (client, *mates):
                    await c.close()
                await app.drain()
            return app

        app = run(main())
        # The bad entries took no rid and no journal line.
        assert app.gateway.stats.submits == 4 == app.snapshot()["next_rid"]
        journal_text = journal_path.read_text()
        assert journal_text.count('"op": "submit"') == 4
        assert "NaN" not in journal_text and "Infinity" not in journal_text
        report = check_gateway(app.gateway, journal=app.journal, expect_quiesced=True)
        assert report.ok, report.violations
        successor = make_app(journal_path=journal_path)
        successor.journal.close()  # replayed; nothing more is appended
        assert successor.snapshot() == app.snapshot()

    def test_overlong_profile_is_400_and_journals_nothing(self, tmp_path):
        """A client profile had no segment bound below the body size: 200k
        one-second segments were normalised and searched on the event loop,
        journaled write-ahead, and left 200k breakpoints every later search
        on the port walked past.  One segment past the cap is the caller's
        400 (its own ``invalid`` slot in a batch); the cap itself passes."""
        journal_path = tmp_path / "profile.journal.jsonl"

        def stepwise(n):
            segments = [[float(k), k + 1.0, 1.0 + k % 2] for k in range(n)]
            volume = sum(s[2] for s in segments)
            return body(egress=2, volume=volume, deadline=300.0, profile=segments)

        async def main():
            app = make_app(journal_path=journal_path)
            client = await serving(app)
            try:
                bad = await client.request(
                    "POST", "/v1/reservations", payload=stepwise(MAX_PROFILE_SEGMENTS + 1)
                )
                assert bad.status == 400
                assert f"exceeds {MAX_PROFILE_SEGMENTS}" in bad.json()["error"]
                resp = await client.request(
                    "POST",
                    "/v1/reservations/batch",
                    payload={
                        "submissions": [
                            body(),
                            stepwise(MAX_PROFILE_SEGMENTS + 1),
                            stepwise(MAX_PROFILE_SEGMENTS),
                        ]
                    },
                )
                outcomes = [d["outcome"] for d in resp.json()["decisions"]]
                assert outcomes == ["accepted", "invalid", "accepted"]
                assert client.reconnects == 0
            finally:
                await client.close()
                await app.drain()
            return app

        app = run(main())
        assert app.gateway.stats.submits == 2
        assert journal_path.read_text().count('"op": "submit"') == 2

    def test_unknown_route_404_wrong_method_405(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                assert (await client.request("GET", "/nope")).status == 404
                assert (await client.request("DELETE", "/healthz")).status == 405
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_auth_rejects_unknown_key_and_accepts_known(self):
        async def main():
            app = make_app(keys={"key-a": "alice"})
            host, port = await app.start()
            anon = ServiceClient(host, port)
            alice = ServiceClient(host, port, api_key="key-a")
            intruder = ServiceClient(host, port, api_key="wrong")
            try:
                assert (await anon.request("POST", "/v1/reservations", payload=body())).status == 401
                assert (
                    await intruder.request("POST", "/v1/reservations", payload=body())
                ).status == 401
                resp = await alice.request("POST", "/v1/reservations", payload=body())
                assert resp.status == 201
                rid = resp.json()["rid"]
                status = await alice.request("GET", f"/v1/reservations/{rid}")
                assert status.json()["client"] == "alice"
            finally:
                for c in (anon, alice, intruder):
                    await c.close()
                await app.drain()

        run(main())

    def test_quota_429_carries_retry_after_header(self):
        async def main():
            app = make_app(quota=EdgeLimit(rate=1.0, burst=2.0))
            client = await serving(app)
            try:
                assert (await client.request("GET", "/healthz")).status == 200
                assert (await client.request("GET", "/healthz")).status == 200
                refused = await client.request("GET", "/healthz")
                assert refused.status == 429
                assert refused.retry_after is not None and refused.retry_after > 0
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_batch_costs_one_quota_token_whatever_its_size(self):
        async def main():
            app = make_app(quota=EdgeLimit(rate=1.0, burst=2.0))
            client = await serving(app)
            try:
                batch = {"submissions": [body(ingress=i) for i in range(3)]}
                sent = await client.request("POST", "/v1/reservations/batch", payload=batch)
                assert sent.status == 200 and len(sent.json()["decisions"]) == 3
                assert (app.quota.admitted, app.quota.refused) == (1, 0)
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_edge_refusal_is_429_with_retry_after(self):
        async def main():
            app = make_app(edge=EdgeLimit(rate=10.0, burst=20.0))
            client = await serving(app)
            try:
                first = await client.request(
                    "POST", "/v1/reservations", payload=body(volume=20.0)
                )
                assert first.status == 201
                refused = await client.request(
                    "POST", "/v1/reservations", payload=body(volume=5.0)
                )
                assert refused.status == 429
                assert refused.json()["outcome"] == "edge-refused"
                assert refused.retry_after == pytest.approx(0.5, abs=1e-3)
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_healthz_reports_slo_and_draining(self):
        async def main():
            app = make_app(slo_rules=None)  # scaled defaults: watchdog on
            client = await serving(app)
            try:
                healthy = await client.request("GET", "/healthz")
                assert healthy.status == 200
                doc = healthy.json()
                assert doc["status"] == "serving" and doc["slo"]["ok"]
                app.draining = True
                draining = await client.request("GET", "/healthz")
                assert draining.status == 503
                assert draining.json()["status"] == "draining"
                # Mutations are refused while draining; reads still serve.
                refused = await client.request("POST", "/v1/reservations", payload=body())
                assert refused.status == 503
            finally:
                await client.close()
                app.draining = False
                await app.drain()

        run(main())

    def test_headroom_tracks_committed_peaks(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                before = (await client.request("GET", "/v1/headroom")).json()
                assert all(
                    row["headroom"] == row["capacity"] for row in before["ports"]["ingress"]
                )
                resp = await client.request(
                    "POST", "/v1/reservations", payload=body(ingress=2, volume=100.0)
                )
                assert resp.status == 201
                after = (await client.request("GET", "/v1/headroom")).json()
                row = after["ports"]["ingress"][2]
                assert row["peak"] > 0 and row["headroom"] < row["capacity"]
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_metrics_exposes_serve_families(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                await client.request("POST", "/v1/reservations", payload=body())
                text = (await client.request("GET", "/metrics")).body.decode()
                assert "serve_requests_total" in text
                assert "serve_request_seconds" in text
                assert "serve_decisions_total" in text
                assert 'serve_frontier_wave_size_bucket{le="1"} 1' in text
                assert "gateway_submits_total" in text
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_explain_rides_on_status(self):
        async def main():
            app = make_app()
            client = await serving(app)
            try:
                resp = await client.request("POST", "/v1/reservations", payload=body())
                rid = resp.json()["rid"]
                explained = await client.request(
                    "GET", f"/v1/reservations/{rid}?explain=1"
                )
                assert explained.status == 200
                story = explained.json()["explain"]
                assert story is not None and f"req-{rid}" in story
            finally:
                await client.close()
                await app.drain()

        run(main())

    def test_frontier_coalesces_concurrent_submits(self):
        async def main():
            app = make_app(max_wave=8)
            client_count = 8
            host, port = await app.start()
            clients = [ServiceClient(host, port) for _ in range(client_count)]
            for c in clients:
                await c.connect()
            try:
                responses = await asyncio.gather(
                    *(
                        c.request(
                            "POST",
                            "/v1/reservations",
                            payload=body(ingress=i % 4, egress=(i + 1) % 4),
                        )
                        for i, c in enumerate(clients)
                    )
                )
                assert all(r.status in (200, 201) for r in responses)
                # 8 concurrent submits over an 8-wide frontier: strictly
                # fewer waves than submissions proves coalescing happened.
                assert app.frontier.waves < client_count
                assert app.frontier.coalesced == client_count
            finally:
                for c in clients:
                    await c.close()
                await app.drain()

        run(main())

    def test_keep_alive_and_bad_request_close(self):
        async def main():
            app = make_app()
            host, port = await app.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"BOGUS\r\n\r\n")
                await writer.drain()
                raw = await reader.read(4096)
                assert b"400" in raw.split(b"\r\n", 1)[0]
                assert b"Connection: close" in raw
                writer.close()
            finally:
                await app.drain()

        run(main())


class TestServeConfigValidation:
    def test_cli_build_app_roundtrip(self):
        from repro.serve.cli import _parser, build_app

        args = _parser().parse_args(
            ["--ports", "4", "--shards", "2", "--gen-keys", "3", "--quota-rate", "5"]
        )
        app = build_app(args)
        assert len(app.keyring) == 3
        assert app.quota is not None and app.quota.limit.rate == 5.0
        assert app.gateway.platform.num_ingress == 4

    def test_journal_json_roundtrip(self, tmp_path):
        keys = tmp_path / "keys.json"
        keys.write_text(json.dumps({"k1": "alice"}))
        from repro.serve.cli import _parser, build_app

        app = build_app(_parser().parse_args(["--keys", str(keys)]))
        assert app.keyring.client_for("k1") == "alice"
        # One shard unless asked, like ``Gateway`` and ``ServeConfig`` (was 4).
        assert app.gateway.num_shards == 1 == ServeConfig(app.config.platform).num_shards
