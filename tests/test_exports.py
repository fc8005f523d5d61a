"""Every name a module lists in ``__all__`` resolves on that module, and the
control and gateway packages import in either order."""

import importlib
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
