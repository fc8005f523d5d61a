"""Every name a module lists in ``__all__`` resolves on that module, the
control and gateway packages import in either order, the lazy packages
re-export the defining modules' objects, a serving process imports
neither numpy nor the offline packages, a library process that books
ahead, verifies and replays imports none of them either, and the paper's
online heuristics (GREEDY, WINDOW, retry-GREEDY) schedule without numpy."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    missing, exported = [], 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert missing == []
    assert exported > 0


@pytest.mark.parametrize("module", ["repro.gateway", "repro.control", "repro.control.service"])
def test_imports_first_in_a_fresh_interpreter(module):
    """``repro.control`` builds on ``repro.gateway``, never the reverse, so
    neither package meets the other half-initialised."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_the_gateway_imports_nothing_from_control():
    env = {**os.environ, "PYTHONPATH": SRC}
    probe = "import sys, repro.gateway; print(sorted(m for m in sys.modules if 'control' in m))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# What a ``grid-serve`` process imports.  Run in a clean interpreter:
# pytest itself has numpy loaded long before any test runs.
# ----------------------------------------------------------------------
SERVE_LIFE = r"""
import asyncio, json, sys, tempfile
from pathlib import Path

from repro.serve.cli import _parser, build_app
from repro.serve.http import HttpRequest
from repro.gateway.invariants import check_gateway


def call(app, method, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    request = HttpRequest(method=method, path=path, query={}, headers={}, body=raw)
    return asyncio.run(app.dispatch(request))


journal = Path(tempfile.mkdtemp()) / "wal.jsonl"
argv = ["--ports", "4", "--shards", "2", "--batch-size", "4", "--journal", str(journal)]
app = build_app(_parser().parse_args(argv))
wave = [
    {"ingress": k % 4, "egress": (k + 1) % 4, "volume": 500.0, "deadline": 900.0, "at": 1.0}
    for k in range(12)
]
assert call(app, "POST", "/v1/reservations/batch", {"submissions": wave}).status == 200
assert call(app, "GET", "/v1/reservations/3").status == 200
assert "gateway_" in call(app, "GET", "/metrics").text
asyncio.run(app.drain())
successor = build_app(_parser().parse_args(argv))
assert successor.snapshot() == app.snapshot()
report = check_gateway(successor.gateway, journal=successor.journal)
assert report.ok and report.checks["replayed"] == 2, report.violations
assert call(successor, "GET", "/v1/reservations/3").status == 200
assert "serve_requests_total" in call(successor, "GET", "/metrics").text
print(json.dumps(sorted(sys.modules)))
"""

#: Modules no part of a serving process's life may load.
OFFLINE = {
    "numpy",
    *(f"repro.schedulers.{m}" for m in ("flexible", "advance", "localsearch", "rigid", "registry")),
    "repro.workload",
    "repro.metrics",
    "repro.experiments",
    "repro.exact",
    "repro.fairness",
}


def test_a_serving_process_never_imports_numpy_or_the_offline_packages():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", SERVE_LIFE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "repro.serve.cli" in loaded and "repro.gateway.invariants" in loaded
    assert sorted(OFFLINE & loaded) == []


# ----------------------------------------------------------------------
# What a library process that books ahead, verifies and replays imports:
# the stack benchmark's ``direct_core`` phases, end to end.
# ----------------------------------------------------------------------
LIBRARY_LIFE = r"""
import json, sys, tempfile
from pathlib import Path

from repro.control.journal import Journal
from repro.control.service import ReservationService
from repro.core.allocation import verify_schedule
from repro.core.platform import Platform
from repro.core.problem import ProblemInstance
from repro.core.request import Request, RequestSet
from repro.gateway import Gateway
from repro.gateway.invariants import check_gateway
from repro.schedulers import make_scheduler

platform = Platform.uniform(4, 4, 1000.0)
stream = [
    {"ingress": k % 4, "egress": (k + 1) % 4, "volume": 400_000.0, "deadline": 900.0 + k, "at": float(k)}
    for k in range(24)
]
requests = RequestSet(
    Request(rid, b["ingress"], b["egress"], b["volume"], b["at"], b["deadline"], 1000.0)
    for rid, b in enumerate(stream)
)
result = make_scheduler("bookahead").schedule(ProblemInstance(platform, requests))
verify_schedule(platform, requests, result)
assert 0 < result.num_accepted < len(stream)

service = ReservationService(platform)
for b in stream:
    service.submit(
        ingress=b["ingress"], egress=b["egress"], volume=b["volume"],
        deadline=b["deadline"], now=b["at"],
    )

workdir = Path(tempfile.mkdtemp())
for shards in (1, 4):
    path = workdir / f"wal_s{shards}.jsonl"
    gateway = Gateway(platform, num_shards=shards, batch_size=8, journal=Journal(path=path))
    for i in range(0, len(stream), 8):
        wave = stream[i : i + 8]
        fields = ("ingress", "egress", "volume", "deadline")
        gateway.submit_many([{k: b[k] for k in fields} for b in wave], now=wave[-1]["at"])
    audit = check_gateway(gateway, expect_quiesced=True)
    assert audit.ok, audit.violations
    assert gateway.stats.accepted == service.stats.accepted
rebuilt = Gateway.replay(Journal.load(path))
assert rebuilt.snapshot() == gateway.snapshot()
print(json.dumps(sorted(sys.modules)))
"""

#: Modules a library process that only books ahead, verifies and replays
#: never runs: the serving process's list, less the book-ahead search and
#: the registry, plus the other heuristics' helpers and the drills.
LIBRARY_OFFLINE = {
    "numpy",
    *(f"repro.schedulers.{m}" for m in ("flexible", "localsearch", "rigid", "retry", "costs")),
    "repro.workload",
    "repro.metrics",
    "repro.experiments",
    "repro.exact",
    "repro.fairness",
    *(f"repro.control.{m}" for m in ("faults", "plane", "router", "messages", "striped")),
    "repro.sim",
}


def test_a_library_process_loads_only_what_it_runs():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", LIBRARY_LIFE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert {"repro.schedulers.advance", "repro.control.service"} <= loaded
    assert sorted(LIBRARY_OFFLINE & loaded) == []


# ----------------------------------------------------------------------
# The paper's online heuristics decide on the ledger, without numpy.
# ----------------------------------------------------------------------
ONLINE_LIFE = r"""
import json, sys

from repro.core.platform import Platform
from repro.core.problem import ProblemInstance
from repro.core.request import Request, RequestSet
from repro.schedulers import make_scheduler

platform = Platform.uniform(2, 2, 100.0)
requests = RequestSet(
    Request(rid, rid % 2, (rid + 1) % 2, 6_000.0, 10.0 * rid, 10.0 * rid + 120.0, 100.0)
    for rid in range(12)
)
problem = ProblemInstance(platform, requests)
for name, options in (("greedy", {}), ("window", {"t_step": 20.0}), ("retry-greedy", {})):
    result = make_scheduler(name, policy="0.5", **options).schedule(problem)
    assert 0 < result.num_accepted < len(requests), name
print(json.dumps(sorted(sys.modules)))
"""


def test_the_online_heuristics_load_no_numpy():
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", ONLINE_LIFE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert {"repro.schedulers.flexible", "repro.schedulers.retry"} <= loaded
    assert "numpy" not in loaded


def _type_checking_imports(module):
    """``(relative module, name)`` for every import under the package's
    ``if TYPE_CHECKING:`` block — what mypy sees it export."""
    tree = ast.parse(Path(module.__file__).read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
    )  # fmt: skip
    return [
        ("." * stmt.level + (stmt.module or ""), alias.name)
        for stmt in block.body
        for alias in stmt.names
    ]


@pytest.mark.parametrize("package", ["repro", "repro.schedulers", "repro.control"])
def test_lazy_reexports_are_the_defining_modules_objects(package):
    """The lazy packages export what their ``TYPE_CHECKING`` imports
    declare, and each name resolves to the very object of the module the
    declaration names."""
    module = importlib.import_module(package)
    declared = _type_checking_imports(module)
    assert sorted(name for _, name in declared) == sorted(set(module.__all__) - {"__version__"})
    for source, name in declared:
        assert getattr(module, name) is getattr(importlib.import_module(source, package), name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018
