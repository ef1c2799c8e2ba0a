"""Brute-force enumeration of all maximum delta-free families for small n.

This is the independent oracle: it knows nothing about the generator
construction and finds every family of size exactly 2^(n-1) by pruned
depth-first search over candidate words in ascending order.  The empty
set is excluded up front (it always violates via A xor A); adding a word
X to a partial family P forbids every X xor Y with Y in P; a branch is
abandoned as soon as the remaining candidates cannot reach the target
size.  Canonical forms under ground-set relabeling give the isomorphism
class census.

The search state fits in two machine-word bitmasks over the 2^n possible
words, so the whole thing is plain int arithmetic.  One serial search
finds every family; results are sorted, so output is deterministic.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .construction import recognize_generator
from .core import Family, validate_ground, xor_pair_counts

_ENUM_MAX_GROUND = 5
_CANONICAL_MAX_GROUND = 8
_TIME_CHECK_STRIDE = 256


class EnumerationBudgetError(RuntimeError):
    """Raised when the time budget runs out; carries the partial results."""

    def __init__(self, message: str, partial: tuple[tuple[int, ...], ...] = ()):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True, slots=True)
class EnumerationReport:
    """Everything the exhaustive search found for one ground size."""

    n: int
    families: tuple[Family, ...]
    total: int
    all_generated: bool
    class_sizes: tuple[int, ...]
    elapsed: float


def _dfs(
    n: int,
    prefix: list[int],
    cand: int,
    need: int,
    out: list[tuple[int, ...]],
    deadline: float | None,
    counter: list[int],
) -> None:
    """Collect every completion of ``prefix`` using candidate words ``cand``.

    ``cand`` is a 2^n-bit mask of the words still allowed: greater than
    the last chosen word and not forbidden by any pair chosen so far.
    """
    if need == 0:
        out.append(tuple(prefix))
        return
    while cand:
        if cand.bit_count() < need:
            return
        counter[0] += 1
        if deadline is not None and counter[0] % _TIME_CHECK_STRIDE == 0:
            if time.monotonic() > deadline:
                raise EnumerationBudgetError(
                    f"enumeration budget exhausted with {len(out)} families found",
                    tuple(out),
                )
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        newly = 0
        for y in prefix:
            newly |= 1 << (x ^ y)
        prefix.append(x)
        _dfs(n, prefix, cand & ~newly, need - 1, out, deadline, counter)
        prefix.pop()


def enumerate_maximum_families(n: int, budget: float | None = None) -> EnumerationReport:
    """Every delta-free family of size exactly 2^(n-1), 2 <= n <= 5.

    Deterministic: families are sorted lexicographically by member words.
    A ``budget`` in seconds aborts the search with
    :class:`EnumerationBudgetError` rather than returning a truncated report.
    """
    validate_ground(n)
    if not 2 <= n <= _ENUM_MAX_GROUND:
        raise ValueError(f"enumeration supports 2 <= n <= {_ENUM_MAX_GROUND}")
    if budget is not None and budget <= 0:
        raise EnumerationBudgetError("enumeration budget exhausted before start")
    deadline = None if budget is None else time.monotonic() + budget
    start = time.monotonic()
    raw: list[tuple[int, ...]] = []
    # every word except the empty set is a candidate
    _dfs(n, [], (1 << (1 << n)) - 2, 1 << (n - 1), raw, deadline, [0])
    raw.sort()
    families = tuple(Family(n, words) for words in raw)
    elapsed = time.monotonic() - start
    all_generated = all(recognize_generator(f) is not None for f in families)
    class_sizes = _class_size_census(families)
    return EnumerationReport(
        n=n,
        families=families,
        total=len(families),
        all_generated=all_generated,
        class_sizes=class_sizes,
        elapsed=elapsed,
    )


def verify_completeness(report: EnumerationReport) -> bool:
    """True iff the report holds all 2^n - 1 families and each one is
    recognized as a generated family."""
    if report.total != (1 << report.n) - 1:
        return False
    return all(recognize_generator(f) is not None for f in report.families)


def canonical_form(family: Family) -> Family:
    """Lexicographically least relabeling of the family over all
    permutations of the ground set; equal canonical forms mean isomorphic."""
    n = family.n
    if n > _CANONICAL_MAX_GROUND:
        raise ValueError(f"canonical form supports n <= {_CANONICAL_MAX_GROUND}")
    m = family._arr
    if m.size == 0:
        return family
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint32)
    relabeled = np.zeros((perms.shape[0], m.size), dtype=np.uint32)
    for i in range(n):
        bit = ((m >> i) & 1).astype(np.uint32)
        relabeled |= bit[None, :] << perms[:, i][:, None]
    relabeled.sort(axis=1)
    best = relabeled[np.lexsort(relabeled.T[::-1])[0]]
    return Family(n, best)


def _class_size_census(families: tuple[Family, ...]) -> tuple[int, ...]:
    groups: dict[tuple[int, ...], int] = {}
    for f in families:
        key = canonical_form(f).members
        groups[key] = groups.get(key, 0) + 1
    return tuple(sorted(groups.values()))


def find_extension(family: Family) -> int | None:
    """The least nonempty word whose addition keeps the family delta-free,
    or None when the family is inclusion-maximal.

    Requires a delta-free input; probing whether inclusion-maximality can
    occur below the maximum size is exactly what this exists for.  One
    xor pair-count vector serves both questions, for every n <= MAX_GROUND:
    the family is delta-free iff no member is a member pair's difference,
    and a word extends it iff it is absent and no member pair's difference.
    """
    counts = xor_pair_counts(family)
    if counts[family._arr].any():
        raise ValueError("find_extension requires a delta-free family")
    free = np.flatnonzero((counts[1:] == 0) & (family.table_bits()[1:] == 0))
    return int(free[0]) + 1 if free.size else None
