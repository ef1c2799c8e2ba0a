"""Span wrappers around deltafree's public functions, installed from outside.

The tracer replaces each traced function at every place the package binds
it: module globals of every ``deltafree`` module (``cli`` imports checkers
by name), dict values and tuples inside module-level dicts (``cli._CHECKS``,
``experiments.DEFINITIONS``), and ``Family.__init__`` on the class.  Each
wrapper records one span: its layer's call count, inclusive time, self time
(inclusive time minus the time of the spans nested directly inside it) and
a work count for rate metrics.  Spans are aggregated per layer as they close,
so memory stays flat however many calls a run makes.

``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    child_s: dict[str, float] = field(default_factory=dict)


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_first_arg(args, kwargs, result) -> int:
    return len(args[0])


def _family_init_words(args, kwargs, result) -> int:
    return len(args[0].members)


def _walsh_adds(args, kwargs, result) -> int:
    # Two transforms of 2^n entries, each n butterfly passes of 2^n adds.
    n = args[0].n
    return 2 * n * (1 << n)


def _enumerated_families(args, kwargs, result) -> int:
    return result.total


def _sweep_samples(args, kwargs, result) -> int:
    cfg = args[0]
    return cfg.trials * len(cfg.p_grid)


# (home module, attribute, layer, work counter or None)
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("deltafree.cli", "main", "cli", None),
    ("deltafree.serialization", "family_from_lines", "serialization.read", _len_result),
    ("deltafree.serialization", "family_from_json", "serialization.read", _len_result),
    ("deltafree.serialization", "family_to_lines", "serialization.write", _len_first_arg),
    ("deltafree.serialization", "family_to_json", "serialization.write", _len_first_arg),
    ("deltafree.core", "is_delta_free", "core.predicate", None),
    ("deltafree.core", "is_delta_closed", "core.predicate", None),
    ("deltafree.core", "is_quadruple_delta_free", "core.predicate", None),
    ("deltafree.core", "is_union_free", "core.predicate", None),
    ("deltafree.core", "find_delta_violation", "core.witness_scan", None),
    ("deltafree.core", "find_closure_violation", "core.witness_scan", None),
    ("deltafree.core", "find_quadruple_collision", "core.witness_scan", None),
    ("deltafree.core", "find_union_collision", "core.witness_scan", None),
    ("deltafree.core", "xor_pair_counts", "core.walsh", _walsh_adds),
    ("deltafree.construction", "generate_family", "construction.generate", _len_result),
    ("deltafree.construction", "recognize_generator", "construction.recognize", None),
    ("deltafree.partition", "partition_family", "partition", None),
    ("deltafree.enumeration", "enumerate_maximum_families", "enumeration.search", _enumerated_families),
    ("deltafree.enumeration", "canonical_form", "enumeration.canonical", None),
    ("deltafree.experiments", "estimate_survival", "experiments.sweep", _sweep_samples),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TRACED)) + ("core.family_init",)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {layer: LayerStats() for layer in LAYERS}
        # One frame per open span: [layer, time of direct child spans].
        self._stack: list[list[Any]] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, fn: Callable, layer: str, count: Callable | None) -> Callable:
        stats = self.stats[layer]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent_child = self.stats[parent[0]].child_s
                    parent_child[layer] = parent_child.get(layer, 0.0) + elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
            if count is not None:
                stats.work += count(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        originals: dict[int, Callable] = {}
        for module_name, attr, layer, count in TRACED:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is not None:
                originals[id(fn)] = self.wrap(fn, layer, count)
        for name, module in list(sys.modules.items()):
            if name == "deltafree" or name.startswith("deltafree."):
                self._rebind(vars(module), originals, seen=set())
        family = sys.modules["deltafree.core"].Family
        init = family.__init__
        family.__init__ = self.wrap(init, "core.family_init", _family_init_words)
        self._undo.append(lambda: setattr(family, "__init__", init))
        return self

    def _rebind(self, namespace: dict, originals: dict[int, Callable], seen: set[int]) -> None:
        """Swap originals for wrappers in a namespace and in the dicts it holds."""
        for key, value in list(namespace.items()):
            if id(value) in originals:
                self._swap(namespace, key, originals[id(value)])
            elif isinstance(value, tuple) and any(id(v) in originals for v in value):
                self._swap(namespace, key, tuple(originals.get(id(v), v) for v in value))
            elif isinstance(value, dict) and id(value) not in seen:
                seen.add(id(value))
                self._rebind(value, originals, seen)

    def _swap(self, namespace: dict, key: Any, new: Any) -> None:
        old = namespace[key]
        namespace[key] = new
        self._undo.append(lambda: namespace.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def child_share(self, layer: str, children: tuple[str, ...]) -> float:
        """Share of a layer's inclusive time spent in direct child spans."""
        st = self.stats[layer]
        if st.total_s == 0.0:
            return 0.0
        return sum(st.child_s.get(c, 0.0) for c in children) / st.total_s
