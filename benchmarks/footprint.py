"""What a served decision leaves in memory, measured in-process.

Drives a ``ServeApp`` configured as the stack benchmark's server
(``Platform.uniform(16, 16, 1000.0)``, 4 shards, batch 8, no SLO rules,
default telemetry — metrics only, no ring record — a write-ahead journal
on disk, logical clock) with the
``serve_light`` stream — ``benchmarks/stack/inputs.light_stream`` in
batch POSTs of 16 — through ``ServeApp.dispatch`` (no sockets, so nothing
of the client's stays behind), and prints:

- the bytes the run left allocated per decision (``tracemalloc``, after a
  full collection; the first wave, which warms caches and binds metric
  samples, is before the baseline) and the source lines that hold most;
- the same bytes with what ``grid-serve`` ships (1 shard, the default SLO
  rules) and with those defaults but ``slo_rules=()``: the watchdog's
  own share;
- the garbage-collector-tracked objects the run left per decision, by type;
- the collector's work while a fresh app serves the whole stream: the
  collections of each generation and the longest pause, timed with
  ``gc.callbacks`` (a pause that grows with the run's length is history
  the collector keeps walking);
- the CPU a decision costs with the default telemetry and with a
  ``NullTelemetry`` (median of :data:`ROUNDS` alternating runs), scaled
  to the stack benchmark's reference host speed as ``benchmarks/stack``
  does (``child.Reference`` bursts beside each run, times multiplied by
  ``run.REFERENCE_NS`` / mean burst), and the share telemetry takes —
  on that stream and on ``serve_hot``'s, ``inputs.hot_stream``, whose
  decisions search and book on contended ports;
- the hot stream's search counts per decision: book-ahead searches,
  ``Port.blocker`` probes and the mean number of starts a search visited
  (``FitProbe.candidates``, one rate asked per start), and how many of
  its capacity-checked port bookings (``Port.fits`` / ``Port.book``
  calls, each asking ``Port.proven`` once) committed on a proof, with no
  second probe.  They repeat exactly, so a change to the search shows it
  asks the kernel the same questions by printing the same numbers;
- the wall seconds ``ServeApp.explain`` takes, after the whole stream,
  for rid 5 and for the newest rid: the story is rebuilt by replaying
  the journal, so this is what ``?explain=1`` costs;
- what a restart costs after :data:`RESTARTS` light decisions served with
  ``grid-serve``'s defaults and a file journal, then drained (the drain
  writes the checkpoint): the checkpoint line's bytes per decision, and
  the wall seconds of ``Journal.load`` and of ``Gateway.resume`` on that
  file (medians of :data:`ROUNDS`), the successor's restore.  The size is
  deterministic, so it is gated: the script exits 1 when it passes
  :data:`CHECKPOINT_BYTES` per decision.

Run from the repository root::

    PYTHONPATH=src python benchmarks/footprint.py

CI writes the report to ``benchmarks/results/FOOTPRINT_serve.txt``, and
fails when the checkpoint size gate does.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "stack"))

from child import Reference  # noqa: E402
from inputs import hot_stream, light_stream  # noqa: E402
from run import REFERENCE_NS  # noqa: E402

from repro.core.ledger import Port  # noqa: E402
from repro.gateway import Gateway, Journal  # noqa: E402
from repro.gateway.journal import CHECKPOINT_PREFIX  # noqa: E402
from repro.core.platform import Platform  # noqa: E402
from repro.core.profile import Segment  # noqa: E402
from repro.obs import NullTelemetry, Telemetry  # noqa: E402
from repro.obs.telemetry import use_telemetry  # noqa: E402
from repro.serve import LogicalClock, ServeApp, ServeConfig  # noqa: E402
from repro.serve.http import HttpRequest  # noqa: E402

#: Submissions per batch POST (the ``serve_light`` loadgen's batch size).
WAVE = 16
#: The stream: about as many decisions as a ``serve_light`` run makes.
DECISIONS, SEED = 9008, 1
#: Allocation sites the report lists.
TOP = 12
#: Alternating telemetry-on / telemetry-off runs the CPU figures are medians of.
ROUNDS = 5
#: The stack benchmark server's settings: 4 shards, batches of 8, no SLO rules.
BENCH: dict[str, Any] = {"num_shards": 4, "batch_size": 8, "slo_rules": ()}
#: What ``grid-serve`` runs unless told otherwise: ``ServeConfig``'s own
#: defaults (1 shard, the default SLO rules), and the same without rules.
SHIPPED: dict[str, Any] = {}
SHIPPED_NO_SLO: dict[str, Any] = {"slo_rules": ()}
#: Light decisions served before each timed restart: a ``serve_light``
#: run's worth, and a long-running service's.
RESTARTS = (DECISIONS, 100_000)
#: The most bytes per decision a checkpoint may take.
CHECKPOINT_BYTES = 150.0


def tracked() -> Counter[str]:
    """Live garbage-collector-tracked objects by type name."""
    return Counter(type(obj).__qualname__ for obj in gc.get_objects())


def serve(app: ServeApp, bodies: list[dict]) -> None:
    """POST ``bodies`` to the batch endpoint in waves of :data:`WAVE`."""

    async def drive() -> None:
        for k in range(0, len(bodies), WAVE):
            raw = json.dumps({"submissions": bodies[k : k + WAVE]}).encode()
            request = HttpRequest("POST", "/v1/reservations/batch", {}, {}, raw)
            response = await app.dispatch(request)
            assert response.status == 200, response.payload

    asyncio.run(drive())


def make_app(
    journal_path: Path | None, *, metrics: bool = True, settings: dict[str, Any] = BENCH
) -> ServeApp:
    """A ``ServeApp`` configured as the stack benchmark's server (or with
    other ``ServeConfig`` ``settings``), its write-ahead journal at
    ``journal_path`` (``None``: held in memory; ``metrics=False``: with a
    ``NullTelemetry``)."""
    config = ServeConfig(
        platform=Platform.uniform(16, 16, 1000.0), journal_path=journal_path, **settings
    )
    telemetry = None if metrics else NullTelemetry()
    return ServeApp(config, clock=LogicalClock(), telemetry=telemetry)


def cpu_us_per_decision(bodies: list[dict], journal_path: Path, metrics: bool) -> float:
    """Reference-scaled CPU microseconds per decision of a fresh app
    serving ``bodies`` after a warm-up wave."""
    app = make_app(journal_path, metrics=metrics)
    serve(app, bodies[:WAVE])
    reference = Reference()
    reference.block(8)
    cpu = time.process_time_ns()
    serve(app, bodies[WAVE:])
    cpu = time.process_time_ns() - cpu
    reference.block(8)
    app.journal.close()
    burst_ns = reference.wall_ns / reference.bursts
    return cpu / 1e3 * (REFERENCE_NS / burst_ns) / (len(bodies) - WAVE)


def measure(
    bodies: list[dict], workdir: Path, by_site: bool, settings: dict[str, Any] = BENCH
) -> tuple[int, int, Any]:
    """Serve ``bodies`` on a fresh app (built with ``settings``); returns
    the decisions and the batches flushed after the warm-up wave, and what
    they left: allocation sites (``by_site``, a tracemalloc comparison) or
    GC-tracked objects by type."""
    app = make_app(workdir / f"serve-{by_site}.journal.jsonl", settings=settings)
    serve(app, bodies[:WAVE])
    stats = app.gateway.stats
    warm = stats.submits, stats.batches
    if by_site:
        tracemalloc.start()
    gc.collect()
    before = tracemalloc.take_snapshot() if by_site else tracked()
    serve(app, bodies[WAVE:])
    gc.collect()
    if by_site:
        left = tracemalloc.take_snapshot().compare_to(before, "lineno")
        tracemalloc.stop()
    else:
        left = tracked() - before
    app.journal.close()
    return stats.submits - warm[0], stats.batches - warm[1], left


def retained_per_decision(bodies: list[dict], workdir: Path, settings: dict[str, Any]) -> float:
    """The tracemalloc bytes per decision an app built with ``settings``
    left after serving ``bodies`` (see :func:`measure`), its journal in a
    fresh directory under ``workdir``."""
    with tempfile.TemporaryDirectory(dir=workdir) as fresh:
        decided, _, sites = measure(bodies, Path(fresh), by_site=True, settings=settings)
    return sum(stat.size_diff for stat in sites) / decided


def collector_pauses(bodies: list[dict], workdir: Path) -> tuple[int, dict[int, list[float]]]:
    """Serve ``bodies`` on a fresh app with every garbage collection timed
    (``gc.callbacks``); returns the decisions and each generation's pauses
    in seconds."""
    app = make_app(workdir / "gc.journal.jsonl")
    pauses: dict[int, list[float]] = {0: [], 1: [], 2: []}
    started = 0.0

    def timed(phase: str, info: dict[str, int]) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            pauses[info["generation"]].append(time.perf_counter() - started)

    gc.collect()
    gc.callbacks.append(timed)
    try:
        serve(app, bodies)
    finally:
        gc.callbacks.remove(timed)
    app.journal.close()
    return app.gateway.stats.submits, pauses


def cpu_medians(stream: str, bodies: list[dict], workdir: Path) -> tuple[float, float]:
    """Reference-scaled CPU microseconds per decision of ``bodies`` with
    telemetry on and off: medians of :data:`ROUNDS` alternating runs, each
    on a fresh journal."""
    runs: dict[bool, list[float]] = {True: [], False: []}
    for k in range(ROUNDS):
        for metrics in (True, False):
            path = workdir / f"cpu-{stream}-{k}-{metrics}.journal.jsonl"
            runs[metrics].append(cpu_us_per_decision(bodies, path, metrics))
    return statistics.median(runs[True]), statistics.median(runs[False])


def search_counts(bodies: list[dict], workdir: Path) -> tuple[int, int, int, int, int, int]:
    """Serve ``bodies`` on a fresh app; returns the decisions, the
    book-ahead searches and ``Port.blocker`` probes they made, the starts
    those searches visited (summed ``FitProbe.candidates``; the booking
    layer's counters, read from a metrics-only handle installed for the
    run), the capacity-checked port bookings and how many of those
    committed on a proof (``Port.proven`` calls and ``True`` answers)."""
    app = make_app(workdir / "search.journal.jsonl")
    probes = bookings = proofs = 0
    blocker, proven = Port.blocker, Port.proven

    def counted(port: Port, t0: float, t1: float, bw: float) -> tuple[float, float] | None:
        nonlocal probes
        probes += 1
        return blocker(port, t0, t1, bw)

    def asked(port: Port, segments: Sequence[Segment]) -> bool:
        nonlocal bookings, proofs
        answer = proven(port, segments)
        bookings += 1
        proofs += answer
        return answer

    Port.blocker, Port.proven = counted, asked  # type: ignore[method-assign]
    try:
        with use_telemetry(Telemetry(max_events=0, max_spans=0)) as telemetry:
            serve(app, bodies)
    finally:
        Port.blocker, Port.proven = blocker, proven  # type: ignore[method-assign]
    app.journal.close()
    metrics = telemetry.metrics
    searches = int(metrics.counter("booking_earliest_fit_total").total())
    candidates = int(metrics.counter("booking_candidates_examined_total").total())
    return app.gateway.stats.submits, searches, probes, candidates, bookings, proofs


def explain_seconds(bodies: list[dict], workdir: Path) -> tuple[int, float, float]:
    """Serve ``bodies`` on a fresh app, then time ``app.explain`` for rid 5
    and for the newest rid; returns that rid and the two wall times."""
    app = make_app(workdir / "explain.journal.jsonl")
    serve(app, bodies)
    newest = app.gateway.stats.submits - 1  # no backlog: every rid is a submission
    seconds = []
    for rid in (5, newest):
        start = time.perf_counter()
        story = asyncio.run(app.explain(rid))
        seconds.append(time.perf_counter() - start)
        assert story is not None and f"rid {rid}" in story
    app.journal.close()
    return newest, seconds[0], seconds[1]


def restart_cost(bodies: list[dict], workdir: Path) -> tuple[int, int, float, float]:
    """Serve ``bodies`` on an app with ``grid-serve``'s defaults and a file
    journal under ``workdir``, and drain it (which checkpoints); returns the
    decisions, the checkpoint line's bytes, and the median wall seconds of
    ``Journal.load`` and of ``Gateway.resume`` over that file."""
    path = workdir / "restart.journal.jsonl"
    app = make_app(path, settings=SHIPPED)
    serve(app, bodies)
    asyncio.run(app.drain())
    data = path.read_bytes()
    line = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :]
    assert line.startswith(CHECKPOINT_PREFIX.encode()), "the drain's checkpoint ends the journal"
    loads, resumes = [], []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        journal = Journal.load(path)
        loaded = time.perf_counter()
        Gateway.resume(journal)
        loads.append(loaded - start)
        resumes.append(time.perf_counter() - loaded)
    path.unlink()
    return app.gateway.stats.submits, len(line), statistics.median(loads), statistics.median(resumes)


def main() -> int:
    bodies = light_stream(SEED, DECISIONS)
    with tempfile.TemporaryDirectory() as workdir:
        decided, _, objects = measure(bodies, Path(workdir), by_site=False)
        _, _, sites = measure(bodies, Path(workdir), by_site=True)
        shipped = {
            name: retained_per_decision(bodies, Path(workdir), settings)
            for name, settings in (("rules", SHIPPED), ("none", SHIPPED_NO_SLO))
        }
        served, pauses = collector_pauses(bodies, Path(workdir))
        on, off = cpu_medians("light", bodies, Path(workdir))
        hot = hot_stream(SEED, DECISIONS)
        hot_on, hot_off = cpu_medians("hot", hot, Path(workdir))
        hot_decided, searches, probes, candidates, bookings, proofs = search_counts(
            hot, Path(workdir)
        )
        newest, first_s, newest_s = explain_seconds(bodies, Path(workdir))
        restarts = [restart_cost(light_stream(SEED, n), Path(workdir)) for n in RESTARTS]
    retained = sum(stat.size_diff for stat in sites)
    print(f"serve_light footprint: {decided} decisions after a warm-up wave, seed {SEED}, "
          f"Python {sys.version.split()[0]}")
    print(f"retained bytes per decision: {retained / decided:.0f} "
          f"({retained / 2**20:.2f} MiB in all)")
    print(f"grid-serve defaults (1 shard, default SLO rules): retained bytes per decision "
          f"{shipped['rules']:.1f}, against {shipped['none']:.1f} with slo_rules=()")
    print(f"gc-tracked objects per decision: {sum(objects.values()) / decided:.2f}")
    for name, count in objects.most_common():
        print(f"  {count / decided:6.2f}  {name}")
    print(f"garbage collections over {served} decisions (a fresh app, the whole stream): "
          + ", ".join(f"generation {g} {len(p)}, longest {max(p, default=0.0) * 1e3:.2f} ms"
                      for g, p in pauses.items())
          + f"; {sum(map(sum, pauses.values())) * 1e3:.1f} ms in all")
    print(f"cpu us per decision (reference-scaled, median of {ROUNDS} alternating runs): "
          f"telemetry on {on:.1f}, off {off:.1f}; telemetry share {1 - off / on:.1%}")
    print(f"hot stream cpu us per decision ({DECISIONS} decisions, same measure): "
          f"telemetry on {hot_on:.1f}, off {hot_off:.1f}; "
          f"telemetry share {1 - hot_off / hot_on:.1%}")
    print(f"hot stream searches per decision ({hot_decided} decisions, exact counts): "
          f"searches {searches / hot_decided:.4f}, Port.blocker probes "
          f"{probes / hot_decided:.4f}, starts visited per search "
          f"{candidates / searches:.4f}; port bookings committed on a proof "
          f"{proofs} of {bookings}")
    print(f"explain seconds after {DECISIONS} decisions (replayed from the header): "
          f"rid 5 {first_s:.3f}, newest rid {newest} {newest_s:.3f}")
    for served, size, load_s, resume_s in restarts:
        print(f"restart after {served} decisions (grid-serve defaults, file journal, drained): "
              f"checkpoint {size / served:.1f} bytes per decision ({size / 2**20:.2f} MiB), "
              f"Journal.load {load_s:.3f} s, Gateway.resume {resume_s:.3f} s "
              f"(medians of {ROUNDS})")
    print("largest allocation sites (bytes per decision):")
    for stat in sorted(sites, key=lambda s: -s.size_diff)[:TOP]:
        frame = stat.traceback[0]
        where = Path(frame.filename)
        if where.is_relative_to(ROOT):
            where = where.relative_to(ROOT)
        print(f"  {stat.size_diff / decided:8.1f}  {where}:{frame.lineno}")
    over = [served for served, size, _, _ in restarts if size / served > CHECKPOINT_BYTES]
    if over:
        print(f"FAIL: the checkpoint takes more than {CHECKPOINT_BYTES:g} bytes per decision "
              f"after {', '.join(map(str, over))} decisions")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
