"""The bench tracer's view of the package.

``bench/tracer.py`` looks each traced name up with ``getattr(..., None)``
and skips the missing ones, so a renamed or deleted function would drop a
layer from traced runs without an error.  These tests pin what it reads.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import deltafree as df

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    for module_name, attr, _, _ in load_tracer().TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_family_members_are_python_ints():
    members = df.Family(5, np.array([7, 1, 3], dtype=np.uint32)).members
    assert type(members) is tuple
    assert members == (1, 3, 7) and all(type(w) is int for w in members)
