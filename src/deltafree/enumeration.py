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

The canonical form is the relabeling whose membership string (one flag
per word, word 0 first) is greatest, which is the one with the least
sorted member tuple.  It is built one target bit at a time: the flags of
the words below 2^(j+1) depend only on which source elements went to
target bits 0..j, so each level extends every surviving partial map by
every unused element and keeps all those whose new block of flags is
greatest.  Ties are kept until the last level, so the result is exact
without visiting the n! relabelings one by one.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .construction import recognize_generator
from .core import Family, validate_ground, xor_pair_counts

_ENUM_MAX_GROUND = 5
_CANONICAL_MAX_GROUND = 8


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
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        newly = 0
        for y in prefix:
            newly |= 1 << (x ^ y)
        prefix.append(x)
        _dfs(n, prefix, cand & ~newly, need - 1, out)
        prefix.pop()


def enumerate_maximum_families(n: int) -> EnumerationReport:
    """Every delta-free family of size exactly 2^(n-1), 2 <= n <= 5.

    Deterministic: families are sorted lexicographically by member words.
    """
    validate_ground(n)
    if not 2 <= n <= _ENUM_MAX_GROUND:
        raise ValueError(f"enumeration supports 2 <= n <= {_ENUM_MAX_GROUND}")
    start = time.monotonic()
    raw: list[tuple[int, ...]] = []
    # every word except the empty set is a candidate
    _dfs(n, [], (1 << (1 << n)) - 2, 1 << (n - 1), raw)
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
    permutations of the ground set; equal canonical forms mean isomorphic.

    Relabelings keep the size, and of two equal-size families the one
    with the smaller sorted members holds the least word of their
    symmetric difference; so the search (see the module docstring) looks
    for the greatest membership string, keeping every tied partial map.
    """
    n = family.n
    if n > _CANONICAL_MAX_GROUND:
        raise ValueError(f"canonical form supports n <= {_CANONICAL_MAX_GROUND}")
    if family._arr.size == 0:
        return family
    ind = family.table_bits()
    # Per surviving partial map: the source word of each target word fixed
    # so far (every word fits a uint8 at n <= 8), and its unused elements.
    pre = np.zeros((1, 1), dtype=np.uint8)
    free = np.ones((1, n), dtype=bool)
    for j in range(n):
        # every (partial map, unused element) pair; element -> target bit j
        branch, elem = np.nonzero(free)
        # source words of target words 2^j .. 2^(j+1) - 1
        block = pre[branch] | (1 << elem).astype(np.uint8)[:, None]
        # packed big-endian, the bytes compare as the flag strings do
        packed = np.packbits(ind[block], axis=1)
        best = np.arange(branch.size)
        for col in packed.T:
            if best.size == 1:
                break
            col = col[best]
            best = best[col == col.max()]
        if j == n - 1:
            best = best[:1]  # the survivors relabel to the same family
        pre = np.concatenate((pre[branch[best]], block[best]), axis=1)
        free = free[branch[best]]
        free[np.arange(best.size), elem[best]] = False
    return Family(n, np.flatnonzero(ind[pre[0]]))


def _class_size_census(families: tuple[Family, ...]) -> tuple[int, ...]:
    groups = Counter(canonical_form(f)._arr.tobytes() for f in families)
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
