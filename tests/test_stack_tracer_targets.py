"""Every name ``benchmarks/stack/tracer.py`` wraps still exists: a traced
run looks each ``CORE_TARGETS`` / ``SERVE_TARGETS`` entry up as
``resolve(path).__dict__[attr]`` and fails on a name deleted or renamed
under ``src/``.  This looks them up the same way, without running it."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "stack" / "tracer.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("stack_tracer", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tool = load_tool()
    targets = tool.CORE_TARGETS + tool.SERVE_TARGETS
    assert len(targets) > 50
    missing = []
    for path, attr, *_ in targets:
        try:
            tool.resolve(path).__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{path} {attr}")
    assert not missing, f"names the stack tracer wraps are gone: {missing}"
