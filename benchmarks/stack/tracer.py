"""Benchmark-side span tracer: wraps the program's public callables.

Nothing under ``src/`` changes.  ``install`` replaces, for the duration of
a traced run, the binding each *caller* actually uses (for example
``repro.serve.app.read_request``, not ``repro.serve.http.read_request``)
with a timing wrapper, and ``uninstall`` puts every original back.

Three wrapper kinds, chosen by call volume:

``span``   one stored record per call
           ``(name, layer, start, end, parent, request_id, active, child)``;
``async``  the same for a coroutine function — the coroutine is driven
           step by step, so ``active`` is only the time it actually ran on
           the loop (``end - start - active`` is what it spent parked);
``agg``    per-candidate probes and leaf kernel/obs calls (up to ~10^6 a
           run): count + total time per callable, not stored one by one.

Self time of a span is ``active - child``: the event loop runs one
synchronous slice at a time, so a plain stack of open slices gives exact
nesting even with many tasks in flight.  The *logical* parent and the
request id follow the asyncio task through a context variable, so a
frontier flush fired by the linger timer still names the dispatch that
armed it.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: (span id, request id) of the innermost span of the current task.
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "stack_bench_current_span", default=(-1, -1)
)

SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "request_id", "active", "child")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[tuple[Any, ...]] = []
        #: name -> [layer, calls, total_ns, child_ns]
        self.agg: dict[str, list[Any]] = {}
        #: free counters bumped by ``on_result`` hooks
        self.counts: dict[str, float] = {}
        self.marks: list[dict[str, Any]] = []
        # Open slices, innermost last: [child_ns, span_id, request_id].
        self._stack: list[list[int]] = []
        self._in_leaf = False
        self._next_id = 0
        self._next_request = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _open(self, mint: bool) -> tuple[list[int], list[int] | None, int]:
        stack = self._stack
        parent = stack[-1] if stack else None
        if mint:
            request_id = self._next_request
            self._next_request += 1
        elif parent is not None:
            request_id = parent[2]
        else:
            request_id = _CURRENT.get()[1]
        span_id = self._next_id
        self._next_id += 1
        logical_parent = parent[1] if parent is not None else _CURRENT.get()[0]
        return [0, span_id, request_id], parent, logical_parent

    def span(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        *,
        mint: bool = False,
        on_result: Callable[[Tracer, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap a synchronous callable; one stored span per call."""
        clock, stack, spans = self.clock, self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame, parent, logical_parent = self._open(mint)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[0] += elapsed
                spans.append(
                    (name, layer, start, end, logical_parent, frame[2], elapsed, frame[0])
                )

        return wrapper

    def aspan(
        self, fn: Callable[..., Any], name: str, layer: str, *, mint: bool = False
    ) -> Callable[..., Any]:
        """Wrap a coroutine function; its coroutine is driven slice by slice."""

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            return await _Driven(self, fn(*args, **kwargs), name, layer, mint)

        return wrapper

    def aggregate(
        self, fn: Callable[..., Any], name: str, layer: str, *, leaf: bool
    ) -> Callable[..., Any]:
        """Wrap a high-volume callable: count + total time, no stored span.

        ``leaf=True`` is the cheapest form for callables that call nothing
        wrapped (a leaf reached from inside another leaf is not timed
        again); ``leaf=False`` opens a slice so wrapped callees subtract.
        """
        clock, stack = self.clock, self._stack
        entry = self.agg.setdefault(name, [layer, 0, 0, 0])

        if leaf:

            @functools.wraps(fn)
            def leaf_wrapper(*args: Any, **kwargs: Any) -> Any:
                if self._in_leaf:
                    return fn(*args, **kwargs)
                self._in_leaf = True
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self._in_leaf = False
                    entry[1] += 1
                    entry[2] += elapsed
                    if stack:
                        stack[-1][0] += elapsed

            return leaf_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [0, -1, parent[2] if parent is not None else -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry[1] += 1
                entry[2] += elapsed
                entry[3] += frame[0]
                if parent is not None:
                    parent[0] += elapsed

        return wrapper

    # ------------------------------------------------------------------
    # Installing over the program
    # ------------------------------------------------------------------
    def install(
        self, targets: tuple[tuple[Any, ...], ...], *, mint: tuple[str, ...] = ()
    ) -> None:
        """Wrap every ``(owner path, attr, layer, kind[, options])`` target.

        ``owner path`` is ``module`` or ``module:Class``; span names listed
        in ``mint`` start a new request id (the run's top-level calls).
        """
        for path, attr, layer, kind, *rest in targets:
            options = dict(rest[0]) if rest else {}
            owner = resolve(path)
            original = owner.__dict__[attr]
            target = original.__func__ if isinstance(original, classmethod) else original
            name = f"{path.rpartition(':')[2].rpartition('.')[2]}.{attr}"
            if name in mint:
                options["mint"] = True
            if kind == "span":
                wrapped = self.span(target, name, layer, **options)
            elif kind == "async":
                wrapped = self.aspan(target, name, layer, **options)
            else:
                wrapped = self.aggregate(target, name, layer, leaf=(kind == "leaf"))
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original binding back (innermost patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Boundaries and output
    # ------------------------------------------------------------------
    def mark(self) -> None:
        """Snapshot the aggregates at a timed-window boundary."""
        self.marks.append(
            {
                "t": self.clock(),
                "span_index": len(self.spans),
                "agg": {name: list(row) for name, row in self.agg.items()},
                "counts": dict(self.counts),
            }
        )

    def dump(self, path: Path) -> None:
        """Write spans (as rows under ``SPAN_FIELDS``) and marks as JSON."""
        document = {
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "marks": self.marks,
        }
        path.write_text(json.dumps(document, separators=(",", ":")))


class _Driven:
    """Awaitable that steps a coroutine and times each synchronous slice."""

    __slots__ = ("tracer", "coro", "name", "layer", "mint")

    def __init__(self, tracer: Tracer, coro: Any, name: str, layer: str, mint: bool) -> None:
        self.tracer = tracer
        self.coro = coro
        self.name = name
        self.layer = layer
        self.mint = mint

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        clock, stack = tracer.clock, tracer._stack
        frame, _, logical_parent = tracer._open(self.mint)
        token = _CURRENT.set((frame[1], frame[2]))
        first: int | None = None
        active = 0
        value: Any = None
        error: BaseException | None = None
        try:
            while True:
                parent = stack[-1] if stack else None
                stack.append(frame)
                start = clock()
                if first is None:
                    first = start
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = clock()
                    stack.pop()
                    active += end - start
                    if parent is not None:
                        parent[0] += end - start
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # cancellation etc.: hand it to the coroutine
                    value = None
                    error = exc
        finally:
            # Closed from another context (loop shutdown): nothing to restore.
            with contextlib.suppress(ValueError):
                _CURRENT.reset(token)
            tracer.spans.append(
                (self.name, self.layer, first, end, logical_parent, frame[2], active, frame[0])
            )


def resolve(path: str) -> Any:
    """``module`` or ``module:Class`` -> the object owning the attribute."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


# ----------------------------------------------------------------------
# What gets wrapped (layer names are the repo's modules)
# ----------------------------------------------------------------------
def _note_candidates(tracer: Tracer, outcome: Any) -> None:
    tracer.counts["decisions"] = tracer.counts.get("decisions", 0) + 1
    tracer.counts["candidates"] = tracer.counts.get("candidates", 0) + outcome.probe.candidates


def _note_hold(tracer: Tracer, hold: Any) -> None:
    if hold is not None:
        tracer.counts["holds"] = tracer.counts.get("holds", 0) + 1


_CAPACITY_METHODS = (
    "add", "max_usage", "min_usage", "usage_at", "breakpoints", "segments", "global_max",
)  # fmt: skip

CORE_TARGETS: tuple[tuple[Any, ...], ...] = (
    ("repro.gateway.gateway:Gateway", "submit", "gateway.gateway", "span"),
    ("repro.gateway.gateway:Gateway", "submit_many", "gateway.gateway", "span"),
    ("repro.gateway.gateway:Gateway", "drain", "gateway.gateway", "span"),
    ("repro.gateway.gateway:Gateway", "cancel", "gateway.gateway", "span"),
    ("repro.gateway.gateway:Gateway", "get", "gateway.gateway", "span"),
    ("repro.gateway.gateway:Gateway", "replay", "gateway.gateway", "span"),
    ("repro.gateway.batch:Batcher", "enqueue", "gateway.batch", "span"),
    ("repro.gateway.batch:Batcher", "drain", "gateway.batch", "span"),
    (
        "repro.gateway.twophase:TwoPhaseCoordinator", "reserve", "gateway.twophase", "span",
        {"on_result": _note_candidates},
    ),
    ("repro.gateway.twophase:TwoPhaseCoordinator", "release_pair", "gateway.twophase", "span"),
    ("repro.gateway.rpc:Channel", "prepare", "gateway.rpc", "span"),
    ("repro.gateway.rpc:Channel", "commit", "gateway.rpc", "span"),
    ("repro.gateway.rpc:Channel", "abort_hold", "gateway.rpc", "span"),
    ("repro.gateway.rpc:Channel", "book_pair", "gateway.rpc", "span"),
    ("repro.gateway.rpc:Channel", "release", "gateway.rpc", "span"),
    (
        "repro.gateway.broker:ShardBroker", "prepare", "gateway.broker", "span",
        {"on_result": _note_hold},
    ),
    ("repro.gateway.broker:ShardBroker", "commit", "gateway.broker", "span"),
    ("repro.gateway.broker:ShardBroker", "abort_hold", "gateway.broker", "span"),
    ("repro.gateway.broker:ShardBroker", "book_pair", "gateway.broker", "span"),
    ("repro.gateway.broker:ShardBroker", "release", "gateway.broker", "span"),
    # Per-candidate probes: hundreds per decision on the hotspot stream.
    ("repro.gateway.broker:ShardBroker", "pair_fits", "gateway.broker", "agg"),
    ("repro.gateway.broker:ShardBroker", "max_usage", "gateway.broker", "agg"),
    ("repro.gateway.broker:ShardBroker", "free_capacity", "gateway.broker", "agg"),
    ("repro.gateway.broker:ShardBroker", "cached_peak", "gateway.broker", "agg"),
    ("repro.gateway.twophase", "earliest_fit", "core.booking", "span"),
    ("repro.control.service", "earliest_fit", "core.booking", "span"),
    ("repro.core.booking", "earliest_fit", "core.booking", "span"),
    ("repro.core.booking", "book_earliest", "core.booking", "span"),
    ("repro.core.ledger:PortLedger", "fits", "core.ledger", "agg"),
    ("repro.core.ledger:PortLedger", "allocate", "core.ledger", "agg"),
    ("repro.core.ledger:PortLedger", "release", "core.ledger", "agg"),
    ("repro.core.ledger:PortLedger", "free_capacity", "core.ledger", "agg"),
    *(
        (f"repro.core.capacity.{module}:{cls}", method, "core.capacity", "leaf")
        for module, cls in (("breakpoint", "BreakpointProfile"), ("vector", "VectorProfile"))
        for method in _CAPACITY_METHODS
    ),
    # Only the vector backend has its own add_batch (the other inherits a loop over add).
    ("repro.core.capacity.vector:VectorProfile", "add_batch", "core.capacity", "leaf"),
    ("repro.control.journal:Journal", "append", "control.journal", "span"),
    ("repro.control.journal:Journal", "load", "control.journal", "span"),
    ("repro.control.service:ReservationService", "submit", "control.service", "span"),
    ("repro.schedulers.advance:EarliestStartFlexible", "schedule", "schedulers", "span"),
    ("repro.obs.telemetry:Telemetry", "emit", "obs", "leaf"),
    ("repro.obs.tracer:SpanTracer", "instant", "obs", "leaf"),
    ("repro.obs.tracer:SpanTracer", "complete", "obs", "leaf"),
    ("repro.obs.metrics:Counter", "inc", "obs", "leaf"),
    ("repro.obs.metrics:Gauge", "inc", "obs", "leaf"),
    ("repro.obs.metrics:Gauge", "set_max", "obs", "leaf"),
    ("repro.obs.metrics:Histogram", "observe", "obs", "leaf"),
    ("repro.obs.metrics:MetricsRegistry", "counter", "obs", "leaf"),
    ("repro.obs.metrics:MetricsRegistry", "gauge", "obs", "leaf"),
    ("repro.obs.metrics:MetricsRegistry", "histogram", "obs", "leaf"),
)

SERVE_TARGETS: tuple[tuple[Any, ...], ...] = (
    ("repro.serve.app", "read_request", "serve.http", "async"),
    ("repro.serve.app", "render_response", "serve.http", "span"),
    ("repro.serve.app:ServeApp", "dispatch", "serve.app", "async", {"mint": True}),
    ("repro.serve.app:ServeApp", "note_decision", "serve.app", "span"),
    ("repro.serve.app", "build_context", "serve.deps", "span"),
    (
        "repro.serve.api.v1.endpoints.reservations", "parse_submission",
        "serve.endpoints", "span",
    ),
    (
        "repro.serve.api.v1.endpoints.reservations", "decision_payload",
        "serve.endpoints", "span",
    ),
    ("repro.serve.frontier:AdmissionFrontier", "submit", "serve.frontier", "async"),
    ("repro.serve.frontier:AdmissionFrontier", "submit_wave", "serve.frontier", "async"),
    ("repro.serve.frontier:AdmissionFrontier", "flush", "serve.frontier", "span"),
)

#: Every layer of the ledger, in request order (``serve.loop`` and
#: ``loadgen`` are residuals, ``trace`` carries only the overhead ratio).
LAYERS = (
    "loadgen", "serve.http", "serve.app", "serve.deps", "serve.endpoints", "serve.frontier",
    "serve.loop", "gateway.gateway", "gateway.batch", "gateway.twophase", "gateway.rpc",
    "gateway.broker", "core.booking", "core.ledger", "core.capacity", "control.journal",
    "control.service", "schedulers", "obs",
)  # fmt: skip


def trace_routes(tracer: Tracer, app: Any) -> None:
    """Route the app's handlers through ``serve.endpoints`` spans.

    Handlers are bound into ``ROUTE_TABLE`` at import, so patching the
    endpoint modules would miss them; a router over wrapped copies of the
    same routes is public API and dies with the app.
    """
    from repro.serve.routes import Route, Router

    app.router = Router(
        tuple(
            Route(
                route.method,
                route.pattern,
                tracer.aspan(route.handler, route.handler.__name__, "serve.endpoints"),
            )
            for route in app.router.routes
        )
    )


# ----------------------------------------------------------------------
# Reading a trace: per-layer self time and call counts
# ----------------------------------------------------------------------
def layer_ledger(document: dict[str, Any], first: int = 0, last: int = -1) -> dict[str, Any]:
    """Per-layer ``self_ns`` / ``calls`` between marks ``first`` and ``last``.

    Also returns ``wait_ns`` per span name (time parked on the loop) and
    the ``counts`` delta, which the runner turns into the extra metrics.
    """
    begin, finish = document["marks"][first], document["marks"][last]
    layers: dict[str, dict[str, float]] = {}
    waits: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    for name, layer, start, end, _parent, _request, active, child in document["spans"][
        begin["span_index"] : finish["span_index"]
    ]:
        row = layers.setdefault(layer, {"self_ns": 0, "calls": 0})
        row["self_ns"] += active - child
        row["calls"] += 1
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
        waits[name] = waits.get(name, 0) + (end - start - active)
    for name, (layer, calls, total, child) in finish["agg"].items():
        _, calls0, total0, child0 = begin["agg"].get(name, (layer, 0, 0, 0))
        row = layers.setdefault(layer, {"self_ns": 0, "calls": 0})
        row["self_ns"] += (total - total0) - (child - child0)
        row["calls"] += calls - calls0
        calls_by_name[name] = calls_by_name.get(name, 0) + calls - calls0
    counts = {
        key: value - begin["counts"].get(key, 0) for key, value in finish["counts"].items()
    }
    return {"layers": layers, "wait_ns": waits, "calls": calls_by_name, "counts": counts}
