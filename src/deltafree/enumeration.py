"""Exhaustive enumeration of all maximum delta-free families for small n.

This is the independent oracle: it knows nothing about the generator
construction and finds every family of size exactly 2^(n-1) by pruned
depth-first search over candidate words in ascending order.  The empty
set is excluded up front (it always violates via A xor A); adding a word
X to a partial family P forbids every X xor Y with Y in P.  Canonical
forms under ground-set relabeling give the isomorphism class census.

The search state fits in machine-word bitmasks over the 2^n possible
words, so the whole thing is plain int arithmetic.  One serial search
finds every family; results are sorted, so output is deterministic.  The
search takes words in ascending order, so each family is held as found,
with no re-check (``core._ascending_family``); recognition reads its form
once, and the class census reuses it.  A branch is abandoned when one
of two bounds shows that no family of the target size extends it:

* the count bound: fewer candidates remain than members are missing;
* the covering bound: let x be the first chosen word and U the chosen
  words together with the remaining candidates.  A maximum family F
  holding x never holds both w and w xor x (their difference x is a
  member), so F and x xor F are disjoint halves of the power set and
  their union is every word.  Any completion lies inside U, so the
  branch is dead unless U together with x xor U is every word.  As a
  map on the 2^n-bit mask, w -> w xor x swaps blocks of width 2^i for
  each set bit i of x.

Both bounds only discard branches that hold no maximum family, so the
search returns the same families as with the count bound alone, and at
n = 5 it visits 376 nodes instead of 24,516.

The canonical form is the relabeling whose membership string (one flag
per word, word 0 first) is greatest, which is the one with the least
sorted member tuple.  It is built one target bit at a time: the flags of
the words below 2^(j+1) depend only on which source elements went to
target bits 0..j, so each level extends every surviving partial map by
every unused element and keeps all those whose new block of flags is
greatest.  Keeping every tie makes the result exact without visiting the
n! relabelings one by one.

A maximum family needs no search.  It is some A(s), the words at odd
trace against s (``core._maximum_form`` finds s), and a relabeling π
sends A(s) to A(πs), so its class is fixed by k = |s|.  The flag of word
2^i in A(s) is bit i of s, and the flags of the words below 2^i depend
only on the bits of s below i.  So among the s of weight k the greatest
string comes from s = 2^k - 1, which wins at the first word 2^i whose bit
it holds and another s lacks, and the form is A(2^k - 1).  This closed
form serves every n; only the search is held to n <= 8.

Symmetric families tie on many partial maps (all n! of them for a family
invariant under every relabeling), so before a level with many branches
(see ``_MERGE_WORK``) interchangeable survivors are merged.
A survivor's signature is the membership string it gets when its unused
elements go, in increasing order, to the remaining target bits: the
flags ind[p | T] for every fixed source word p and every subset T of the
unused elements.  Any other completion is that one followed by a
permutation of the remaining target bits, which permutes the string the
same way for every survivor.  So two survivors with equal signatures get
equal strings from corresponding completions, and keeping only the first
of them changes neither the greatest string nor the family returned.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .construction import _family_of_form, recognize_generator
from .core import Family, _ascending_family, _maximum_form, validate_ground, xor_pair_counts

_ENUM_MAX_GROUND = 7
_CANONICAL_MAX_GROUND = 8
# _canonical_search merges interchangeable survivors before a level whose
# branches (survivors times unused elements) times 2^n reach this: 128, 64
# and 32 branches at n = 6, 7 and 8.  Timed on every census class at those
# n, a lower value slows some class: a small merge costs more than the
# branches it saves.
_MERGE_WORK = 1 << 13


@dataclass(frozen=True, slots=True)
class EnumerationReport:
    """Everything the exhaustive search found for one ground size."""

    n: int
    families: tuple[Family, ...]
    total: int
    all_generated: bool
    class_sizes: tuple[int, ...]
    elapsed: float  # seconds for the whole call: search, recognition and census
    nodes: int = 0  # search nodes visited, the root included


def _xor_swaps(full: int, x: int) -> list[tuple[int, int]]:
    """(width, mask) per set bit i of x: width 2^i, and the mask of the
    words without bit i, inside the 2^n-bit mask ``full``.

    Applying every swap ``v -> (v & mask) << width | (v >> width) & mask``
    moves each word w of the bitmask v to w xor x.
    """
    swaps = []
    for i in range(x.bit_length()):
        if x >> i & 1:
            width = 1 << i
            swaps.append((width, full // ((1 << 2 * width) - 1) * ((1 << width) - 1)))
    return swaps


def _dfs(
    prefix: list[int],
    chosen: int,
    cand: int,
    need: int,
    full: int,
    swaps: list[tuple[int, int]],
    out: list[tuple[int, ...]],
) -> int:
    """Collect every completion of ``prefix`` using candidate words ``cand``;
    return the number of nodes visited.

    ``chosen`` is the bitmask of ``prefix``.  ``cand`` is the bitmask of
    the words still allowed: greater than the last chosen word and not
    forbidden by any pair chosen so far.  ``swaps`` maps a bitmask to its
    xor with ``prefix[0]`` (see ``_xor_swaps``); it is empty at the root.
    """
    nodes = 1
    if need == 0:
        out.append(tuple(prefix))
        return nodes
    while cand:
        if cand.bit_count() < need:
            break
        if prefix:
            reach = chosen | cand
            image = reach
            for width, mask in swaps:
                image = (image & mask) << width | (image >> width) & mask
            if reach | image != full:
                break
        low = cand & -cand
        cand ^= low
        x = low.bit_length() - 1
        newly = 0
        for y in prefix:
            newly |= 1 << (x ^ y)
        prefix.append(x)
        # the first chosen word fixes the swaps for its whole subtree
        nodes += _dfs(
            prefix, chosen | low, cand & ~newly, need - 1, full, swaps or _xor_swaps(full, x), out
        )
        prefix.pop()
    return nodes


def enumerate_maximum_families(n: int) -> EnumerationReport:
    """Every delta-free family of size exactly 2^(n-1), 2 <= n <= 7.

    Deterministic: families are sorted lexicographically by member words.
    """
    validate_ground(n)
    if not 2 <= n <= _ENUM_MAX_GROUND:
        raise ValueError(f"enumeration supports 2 <= n <= {_ENUM_MAX_GROUND}")
    start = time.monotonic()
    raw: list[tuple[int, ...]] = []
    full = (1 << (1 << n)) - 1
    # every word except the empty set is a candidate
    nodes = _dfs([], 0, full - 1, 1 << (n - 1), full, [], raw)
    raw.sort()
    # each tuple is strictly ascending: the search takes words in order
    families = tuple(_ascending_family(n, np.array(words, dtype=np.uint32)) for words in raw)
    all_generated = all(recognize_generator(f) is not None for f in families)
    class_sizes = _class_size_census(families)
    return EnumerationReport(
        n=n,
        families=families,
        total=len(families),
        all_generated=all_generated,
        class_sizes=class_sizes,
        elapsed=time.monotonic() - start,
        nodes=nodes,
    )


def canonical_form(family: Family) -> Family:
    """Lexicographically least relabeling of the family over all
    permutations of the ground set; equal canonical forms mean isomorphic.

    Relabelings keep the size, and of two equal-size families the one
    with the smaller sorted members holds the least word of their
    symmetric difference; so the least relabeling is the one with the
    greatest membership string.  A maximum family A(s) relabels to A(πs),
    the flag of word 2^i in A(s) is bit i of s and the flags below it
    depend only on the lower bits, so of the s of weight k, s = 2^k - 1
    gives the greatest string: the form is A(2^k - 1), read off with no
    search, at every n.  Every other family takes the search (see the
    module docstring), at n <= 8, keeping every tied partial map up to the
    merge of interchangeable ones.
    """
    n = family.n
    s = _maximum_form(family)
    if s is not None:
        return _family_of_form(n, (1 << s.bit_count()) - 1)
    if n > _CANONICAL_MAX_GROUND:
        raise ValueError(
            f"canonical form supports n <= {_CANONICAL_MAX_GROUND} for a family that is no A(s)"
        )
    if family._arr.size == 0:
        return family
    return _canonical_search(family)


def _canonical_search(family: Family) -> Family:
    """``canonical_form`` at n <= 8 by the tie-keeping search over partial
    relabelings (see the module docstring), for any family."""
    n = family.n
    ind = family.table_bits()
    # Per surviving partial map: the source word of each target word fixed
    # so far (every word fits a uint8 at n <= 8), and its unused elements.
    pre = np.zeros((1, 1), dtype=np.uint8)
    free = np.ones((1, n), dtype=bool)
    for j in range(n):
        if j < n - 1 and pre.shape[0] * (n - j) << n >= _MERGE_WORK:
            keep = _first_interchangeable(ind, pre)
            pre, free = pre[keep], free[keep]
        # every (partial map, unused element) pair; element -> target bit j
        branch, elem = np.nonzero(free)
        # source words of target words 2^j .. 2^(j+1) - 1
        block = pre[branch] | (1 << elem).astype(np.uint8)[:, None]
        # packed big-endian, the bytes compare as the flag strings do, and
        # so do big-endian ints of up to 8 of them
        packed = np.packbits(ind[block], axis=1)
        if packed.shape[1] > 1:
            packed = packed.view(f">u{min(packed.shape[1], 8)}")
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


def _first_interchangeable(ind: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """Ascending index of the first survivor of each signature (see the
    module docstring); survivors with one signature are interchangeable."""
    count = pre.shape[0]
    words = np.arange(ind.size, dtype=np.uint8)
    # The last fixed target word has every used element as its source, so
    # each row lists the subsets of that survivor's unused elements, and in
    # increasing order, which is the order of their ranks.
    subsets = np.broadcast_to(words, (count, words.size))[(words & pre[:, -1:]) == 0]
    flags = ind[pre[:, :, None] | subsets.reshape(count, 1, -1)].reshape(count, -1)
    key = np.packbits(flags, axis=1)
    _, first = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(), return_index=True)
    return np.sort(first)


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
