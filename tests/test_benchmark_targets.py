"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracing.py`` installs its wrappers at call-time lookup sites and
skips any name it cannot find, so a refactor that renames or drops one of
them would silently lose that layer's metrics.  The module's source is only
read and executed in a fresh namespace: nothing is wrapped, and no bytecode
is written next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in tracing.TARGETS])
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("attr", [a for a, _ in tracing.DIRECT])
def test_tracer_direct_transform_resolves(attr):
    assert callable(getattr(importlib.import_module("signadd.transforms"), attr))
