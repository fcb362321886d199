"""The benchmark's traced run patches paradoxlab by name; a rename fails here.

``bench/run.py --trace 1`` looks up every ``(module, name)`` in
``bench/spans.TRACED`` with ``getattr`` and reads ``iterations`` and
``method`` off each ``solve_fixed_point`` result. Nothing here is timed.
"""

from __future__ import annotations

import dataclasses
import importlib
import types
from pathlib import Path

from paradoxlab.ctc import FixedPointSolution

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    """``bench/spans.py`` run from its source, leaving no bytecode cache under ``bench/``."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_hook_resolves():
    for module_name, attr in load_spans().TRACED:
        module = importlib.import_module(f"paradoxlab.{module_name}")
        value = getattr(module, attr, None)
        assert callable(value), f"paradoxlab.{module_name}.{attr} is gone"
        if isinstance(value, type):
            assert hasattr(value, "__post_init__"), f"{attr} has no validation to time"


def test_solution_carries_traced_fields():
    names = {f.name for f in dataclasses.fields(FixedPointSolution)}
    assert {"iterations", "method"} <= names
