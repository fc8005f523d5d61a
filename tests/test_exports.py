"""Every name a module lists in ``__all__`` resolves on that module."""

import importlib
import pkgutil

import repro


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
