"""Bitmask set words, families, and the freeness / closedness checkers.

A subset of the ground set {1, ..., n} is a plain int: element i is bit
i - 1, the empty set is 0, and the whole ground set is (1 << n) - 1.
A :class:`Family` bundles a ground size with its members stored once, as
a deduplicated ascending ``uint32`` array; everything downstream
(construction, enumeration, partitioning, random sampling) works on that
array, and a vector over all 2^n words is scattered from it only where a
caller needs one.

The expensive family predicates are decided bit-parallel: the xor
pair-count vector of a family (how many ordered member pairs have a given
symmetric difference) is computed with a Walsh transform of the members'
indicator vector, which turns the quadratic pair scans into O(n * 2^n)
vector work for every supported n.  The counts are exact although the
second transform's partial sums (up to 2^(3n)) overflow int64: the
transform only adds and subtracts, so wrapping int64 arithmetic yields the
true result modulo 2^64, and the true result 2^n * counts[w] <= 2^n * |F|
<= 2^48 lies below 2^63, so the wrapped value is the true one.  Every
witness is the lexicographically first violating tuple.  The pairwise and
closure checks are their witness finders (``is_*`` is ``find_* is None``):
a pair scan while ``_scan_is_cheaper(F)`` holds, past it one pair-count
vector that gives the witness's first member and then its partner.  Each
first settles the empty set: a member, for pairwise, gives (0, 0), and an
absent one, for closure, gives (m0, m0) with m0 the least member.  The
quadruple witness keeps its pair scan while ``_scan_is_cheaper(F, 32)``
holds and past it reads the first repeated difference off the pair counts.
Below their cutoffs the quadruple and union checks run one incremental scan,
``_first_repeat``, which the survival sweep also runs in draw order; it
settles a free family, and the union witness scans every pair only when
that scan finds a repeat.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

#: Largest supported ground size; the pair-count transform's int64 vector
#: has 2^MAX_GROUND entries (128 MiB).
MAX_GROUND = 24

# Below this many members a direct early-exit pair scan beats the transform.
_SMALL_SCAN_LIMIT = 48


def validate_ground(n: int) -> None:
    """Reject ground sizes outside 1..MAX_GROUND."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"ground size must be an int, got {n!r}")
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground size must be in 1..{MAX_GROUND}, got {n}")


def full_word(n: int) -> int:
    """The word for the whole ground set {1, ..., n}."""
    validate_ground(n)
    return (1 << n) - 1


def validate_word(word: int, n: int) -> None:
    """Reject words that do not fit the ground set (bits at or above n)."""
    validate_ground(n)
    if not isinstance(word, (int, np.integer)) or isinstance(word, bool):
        raise ValueError(f"set word must be an int, got {word!r}")
    if word < 0 or word >> n:
        raise ValueError(f"word {word:#x} does not fit ground size {n}")


def word_of(elements: Iterable[int], n: int) -> int:
    """Build a word from 1-based elements, validating them against n."""
    validate_ground(n)
    word = 0
    for e in elements:
        if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside 1..{n}")
        word |= 1 << (e - 1)
    return word


def elements_of(word: int) -> tuple[int, ...]:
    """The 1-based elements of a word, ascending."""
    out = []
    w = int(word)
    while w:
        low = w & -w
        out.append(low.bit_length())
        w ^= low
    return tuple(out)


class Family:
    """An immutable, deduplicated collection of set words over a fixed ground.

    The members are held once, as a read-only ``uint32`` array ascending by
    word value (the canonical order used everywhere for output and
    witnesses); membership is a binary search in it.  Members are given as
    a 1-D integer array or as an iterable of ints; anything else is refused
    rather than coerced.
    """

    __slots__ = ("n", "_arr", "_hash")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        validate_ground(n)
        if isinstance(members, np.ndarray):
            if members.ndim != 1 or members.dtype.kind not in "iu":
                raise ValueError(
                    f"member array must be 1-D with an integer dtype, "
                    f"got shape {members.shape} and dtype {members.dtype}"
                )
            words = members
            if not (words[1:] > words[:-1]).all():
                # sort and drop repeats; np.unique (numpy 2.4) is ~100x slower at 2^23 words
                words = np.sort(words)
                words = words[np.append(True, words[1:] != words[:-1])]
        else:
            words = list(members)
            if not all(type(w) is int for w in words):
                for w in words:
                    if not isinstance(w, (int, np.integer)) or isinstance(w, bool):
                        raise ValueError(f"set word must be an int, got {w!r}")
                words = [int(w) for w in words]
            words = sorted(set(words))
        # checked before the uint32 cast, so ints past int64 get this error too
        if len(words) and (words[0] < 0 or words[-1] >= 1 << n):
            bad = words[0] if words[0] < 0 else words[-1]
            raise ValueError(f"word {int(bad)} does not fit ground size {n}")
        words = np.array(words, dtype=np.uint32)
        words.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arr", words)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Family is immutable")

    @property
    def members(self) -> tuple[int, ...]:
        """The member words as Python ints, ascending."""
        return tuple(self._arr.tolist())

    def __len__(self) -> int:
        return self._arr.size

    def __iter__(self) -> Iterator[int]:
        return iter(self._arr.tolist())

    def __contains__(self, word: int) -> bool:
        validate_word(word, self.n)
        word = np.uint32(word)  # a query of another dtype would copy the array
        i = self._arr.searchsorted(word)
        return bool(i < self._arr.size and self._arr[i] == word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.n == other.n and self._arr.tobytes() == other._arr.tobytes()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self._arr.tobytes())))
        return self._hash

    def __repr__(self) -> str:
        return f"Family(n={self.n}, size={self._arr.size})"

    def table_bits(self) -> np.ndarray:
        """A fresh membership vector: one uint8 flag per word, 1 for members."""
        bits = np.zeros(1 << self.n, dtype=np.uint8)
        bits[self._arr] = 1
        return bits


def _walsh(vec: np.ndarray) -> np.ndarray:
    """Walsh transform over the xor group, in place; returns ``vec``.

    Each stage is one butterfly pass over blocks of 2h entries; the low
    halves are saved in a single half-size scratch buffer.
    """
    size = vec.size
    scratch = np.empty(size // 2, dtype=vec.dtype)
    h = 1
    while h < size:
        blocks = vec.reshape(-1, 2, h)
        lo, hi = blocks[:, 0, :], blocks[:, 1, :]
        saved = scratch.reshape(-1, h)
        np.copyto(saved, lo)
        lo += hi
        np.subtract(saved, hi, out=hi)
        h *= 2
    return vec


def xor_pair_counts(family: Family) -> np.ndarray:
    """counts[w] = number of ordered member pairs (A, B) with A xor B = w.

    The diagonal contributes counts[0] = |family|.  Exact for every
    supported n: the spectrum is bounded by |family| <= 2^24, so the first
    transform fits int32; the second wraps modulo 2^64 but its true result
    2^n * counts[w] <= 2^48 fits int64 (see the module docstring).
    """
    indicator = np.zeros(1 << family.n, dtype=np.int32)
    indicator[family._arr] = 1
    spectrum = _walsh(indicator)
    counts = _walsh(np.square(spectrum, dtype=np.int64))
    counts >>= family.n
    return counts


def _scan_is_cheaper(family: Family, limit: int = _SMALL_SCAN_LIMIT) -> bool:
    """Whether a pair scan beats the Walsh path: up to ``limit`` members, and
    while its m^2 / 2 interpreted steps stay under the transform's n * 2^n
    vector steps, which holds for m^2 <= 2^(n-2).  The rule is safe, not
    tight: a full set-lookup scan of a delta-free family stays cheaper than
    the pairwise witness's transform up to about m = 64 at n = 10, 190 at
    n = 14, 770 at n = 18, 3,200 at n = 22 and 7,300 at n = 24 (2-vCPU
    x86_64, numpy 2.4)."""
    m = family._arr.size
    return m <= limit or (m * m) << 2 <= 1 << family.n


def _first_member_pair(family: Family, present: bool) -> tuple[int, int] | None:
    """The lexicographically first member pair (A, B), A <= B, for which
    ``(A xor B in family) == present``.

    Past ``_scan_is_cheaper`` one ``xor_pair_counts`` call finds the row:
    counts[A] is the number of members B with A xor B a member, so A has a
    partner iff counts[A] > 0 (present) or counts[A] < |F| (absent).  The
    least such A is the first pair's A, since a partner B < A would itself
    be an earlier such member; its least partner B >= A is one vectorized
    lookup.
    """
    m = family._arr
    if _scan_is_cheaper(family):
        members = m.tolist()
        pool = set(members)
        for i, a in enumerate(members):
            for b in members[i:]:
                if (a ^ b in pool) == present:
                    return (a, b)
        return None
    counts = xor_pair_counts(family)[m]
    rows = np.flatnonzero(counts > 0 if present else counts < m.size)
    if not rows.size:
        return None
    i = rows[0]
    a = m[i]
    hit = np.flatnonzero(family.table_bits()[m[i:] ^ a] == present)
    return (int(a), int(m[i + hit[0]]))


def find_delta_violation(family: Family) -> tuple[int, int] | None:
    """The lexicographically first member pair (A, B) with A xor B a member."""
    if family._arr.size and family._arr[0] == 0:  # the empty set is A xor A
        return (0, 0)
    return _first_member_pair(family, True)


def is_delta_free(family: Family) -> bool:
    """True iff no member is the symmetric difference of two members.

    Pairs include A = B, so any family containing the empty set fails.
    """
    return find_delta_violation(family) is None


def find_closure_violation(family: Family) -> tuple[int, int] | None:
    """The lexicographically first member pair whose difference is absent."""
    m = family._arr
    if m.size and m[0] != 0:  # the empty set, A xor A, is absent
        return (int(m[0]), int(m[0]))
    return _first_member_pair(family, False)


def is_delta_closed(family: Family) -> bool:
    """True iff the symmetric difference of any two members is a member."""
    return find_closure_violation(family) is None


def _first_pair_collision(
    family: Family, combine
) -> tuple[int, int, int, int] | None:
    """First (A, B, C, D), pairs scanned in canonical order, with
    combine(A, B) == combine(C, D), {A, B} != {C, D}, A < B, C < D.

    ``_first_repeat`` settles a free family; otherwise every pair is
    scanned, since the first pair to collide may collide only later."""
    members = family._arr.tolist()
    if _first_repeat(combine, members) is None:
        return None
    seen: dict[int, tuple[int, int]] = {}
    collisions: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            key = combine(a, b)
            first = seen.get(key)
            if first is None:
                seen[key] = (a, b)
            elif key not in collisions:
                collisions[key] = (first, (a, b))
    if not collisions:
        return None
    (a, b), (c, d) = min(collisions.values())
    return (a, b, c, d)


def _first_repeat(combine, words: Iterable[int]) -> int | None:
    """The first of the distinct ``words``, in the order given, whose pairs
    with the words before it repeat a ``combine`` value: one an earlier pair
    has, or one two of its own pairs share; None if no word does.

    Every prefix before that word has distinct pair values, so the word's
    pairs are checked by how much they grow the set of values seen."""
    prefix: list[int] = []
    seen: set[int] = set()
    for x in words:
        size = len(seen)
        seen.update(map(combine, repeat(x), prefix))
        if len(seen) - size < len(prefix):
            return x
        prefix.append(x)
    return None


def _pairs_outnumber_images(family: Family) -> bool:
    """Pigeonhole: the xor or union of a distinct pair is a nonzero word, so
    more than 2^n - 1 distinct pairs force two of them to collide."""
    m = family._arr.size
    return m * (m - 1) // 2 >= 1 << family.n


def is_quadruple_delta_free(family: Family) -> bool:
    """True iff no two distinct member pairs share a symmetric difference.

    Pairs are unordered with distinct elements (A != B), and the two pairs
    must differ as sets; a lone repeated difference is what fails.
    """
    if _pairs_outnumber_images(family):
        return False
    if not _scan_is_cheaper(family, 256):
        counts = xor_pair_counts(family)
        return bool((counts[1:] <= 2).all())
    return _first_repeat(operator.xor, family._arr.tolist()) is None


def find_quadruple_collision(family: Family) -> tuple[int, int, int, int] | None:
    """Witness for is_quadruple_delta_free: first (A, B, C, D) with
    A xor B = C xor D across distinct pairs.

    The witness scan of a family that collides never stops early, so it keeps
    the pair scan only up to 32 members or while m^2 <= 2^(n-2): measured on
    random families (2-vCPU x86_64, numpy 2.4), the counts path wins from
    m = 37 at n <= 8, 74 at n = 12, 175 at n = 16, about 650 at n = 20 and
    2,300 at n = 24.
    """
    if _scan_is_cheaper(family, 32):
        return _first_pair_collision(family, operator.xor)
    return _quadruple_from_counts(family)


def _quadruple_from_counts(family: Family) -> tuple[int, int, int, int] | None:
    """The same witness from the xor pair counts: (A, B) is the first pair in
    scan order whose difference has counts >= 4 (two unordered pairs), and
    (C, D) the least other pair with that difference.

    Scanned rows before the hit hold only pairs with distinct differences,
    so the row-by-row lookup touches fewer than 2^n + m pairs in total.
    """
    counts = xor_pair_counts(family)
    repeated = counts >= 4
    repeated[0] = False  # counts[0] = |F| comes from the diagonal
    if not repeated.any():
        return None
    m = family._arr
    for i in range(m.size - 1):
        hit = np.flatnonzero(repeated[m[i + 1 :] ^ m[i]])
        if hit.size:
            a, b = int(m[i]), int(m[i + 1 + hit[0]])
            break
    key = a ^ b
    partner = m ^ key
    twin = (partner > m) & (family.table_bits()[partner] == 1) & (m != a)
    c = int(m[np.flatnonzero(twin)[0]])
    return (a, b, c, c ^ key)


def is_union_free(family: Family) -> bool:
    """True iff no two distinct member pairs share a union (same pair
    conventions as the quadruple difference check)."""
    if _pairs_outnumber_images(family):
        return False
    return _first_repeat(operator.or_, family._arr.tolist()) is None


def find_union_collision(family: Family) -> tuple[int, int, int, int] | None:
    """Witness for is_union_free: first (A, B, C, D) with A ∪ B = C ∪ D."""
    return _first_pair_collision(family, operator.or_)


# Every freeness definition by name, to its lexicographically first witness
# (None when the family satisfies the definition).
_CHECKS = {
    "pairwise": find_delta_violation,
    "quadruple": find_quadruple_collision,
    "union": find_union_collision,
    "closed": find_closure_violation,
}
