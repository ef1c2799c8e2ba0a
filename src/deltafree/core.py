"""Bitmask set words, families, and the freeness / closedness checkers.

A subset of the ground set {1, ..., n} is a plain int: element i is bit
i - 1, the empty set is 0, and the whole ground set is (1 << n) - 1.
A :class:`Family` bundles a ground size with a deduplicated ascending
tuple of member words plus a packed 2^n-bit membership table; everything
downstream (construction, enumeration, partitioning, random sampling)
operates on that pair of representations.

The expensive family predicates are decided bit-parallel: the xor
pair-count vector of a family (how many ordered member pairs have a given
symmetric difference) is computed with a Walsh transform of the
membership table, which turns the quadratic pair scans into O(n * 2^n)
vector work for every supported n.  The counts are exact although the
second transform's partial sums (up to 2^(3n)) overflow int64: the
transform only adds and subtracts, so wrapping int64 arithmetic yields the
true result modulo 2^64, and the true result 2^n * counts[w] <= 2^n * |F|
<= 2^48 lies below 2^63, so the wrapped value is the true one.  Witness
extraction always runs the plain deterministic scan so failures are
reported as the lexicographically first violating tuple.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

import numpy as np

#: Largest supported ground size; keeps the dense membership table at 2 MiB.
MAX_GROUND = 24

# Below this many members a direct early-exit pair scan beats the transform.
_SMALL_SCAN_LIMIT = 48

_MASK64 = (1 << 64) - 1


class Parity(enum.IntEnum):
    """Cardinality or trace parity; xor-composable, EVEN is the identity."""

    EVEN = 0
    ODD = 1

    def __xor__(self, other: "Parity") -> "Parity":  # type: ignore[override]
        return Parity(int(self) ^ int(other))

    __rxor__ = __xor__


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


def sym_diff(a: int, b: int) -> int:
    """Symmetric difference of two set words: the elements in exactly one."""
    return a ^ b


def card_parity(a: int) -> Parity:
    """Parity of |a|."""
    return Parity(int(a).bit_count() & 1)


def trace_parity(a: int, t: int) -> Parity:
    """Parity of |a ∩ t|."""
    return Parity(int(a & t).bit_count() & 1)


def _vector_parity(arr: np.ndarray) -> np.ndarray:
    """Popcount mod 2 of each entry, vectorized (entries must fit 32 bits)."""
    v = arr.astype(np.uint32)
    v ^= v >> 16
    v ^= v >> 8
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return (v & 1).astype(np.uint8)


class Family:
    """An immutable, deduplicated collection of set words over a fixed ground.

    Members are stored ascending by word value (the canonical order used
    everywhere for output and witnesses) together with a packed bit table
    holding one present/absent flag per possible word.
    """

    __slots__ = ("n", "members", "_arr", "_table", "_hash")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        validate_ground(n)
        top = 1 << n
        if isinstance(members, np.ndarray):
            arr = members
            if arr.ndim != 1 or not (arr[1:] > arr[:-1]).all():
                arr = np.unique(arr)
        else:
            arr = np.fromiter(sorted({int(w) for w in members}), dtype=np.int64)
        if arr.size and (arr[0] < 0 or arr[-1] >= top):
            bad = arr[0] if arr[0] < 0 else arr[-1]
            raise ValueError(f"word {int(bad)} does not fit ground size {n}")
        words = arr.astype(np.uint32)
        table = np.zeros(max(1, top >> 3), dtype=np.uint8)
        if words.size:
            np.bitwise_or.at(table, words >> 3, (1 << (words & 7)).astype(np.uint8))
        words.setflags(write=False)
        table.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", tuple(words.tolist()))
        object.__setattr__(self, "_arr", words)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Family is immutable")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, word: int) -> bool:
        validate_word(word, self.n)
        return self._has(int(word))

    def _has(self, word: int) -> bool:
        return bool((self._table[word >> 3] >> (word & 7)) & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self.n == other.n and self.members == other.members

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.members)))
        return self._hash

    def __repr__(self) -> str:
        return f"Family(n={self.n}, size={len(self.members)})"

    def table_bits(self) -> np.ndarray:
        """The membership table unpacked to one uint8 flag per word."""
        return np.unpackbits(self._table, bitorder="little", count=1 << self.n)


def complement_family(family: Family) -> Family:
    """All words of the power set that are not members."""
    absent = np.flatnonzero(family.table_bits() == 0).astype(np.uint32)
    return Family(family.n, absent)


def parity_census(family: Family) -> tuple[int, int]:
    """(even member count, odd member count)."""
    if not family.members:
        return (0, 0)
    odd = int(_vector_parity(family._arr).sum())
    return (len(family.members) - odd, odd)


def all_odd_family(n: int) -> Family:
    """All 2^(n-1) odd-cardinality subsets of {1, ..., n}."""
    validate_ground(n)
    words = np.arange(1 << n, dtype=np.uint32)
    return Family(n, words[_vector_parity(words) == 1])


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
    spectrum = _walsh(family.table_bits().astype(np.int32))
    counts = _walsh(np.square(spectrum, dtype=np.int64))
    counts >>= family.n
    return counts


def _scan_is_cheaper(family: Family, limit: int = _SMALL_SCAN_LIMIT) -> bool:
    """Whether a pair scan beats the Walsh path: up to ``limit`` members, and
    while its m^2 / 2 interpreted steps stay under the transform's n * 2^n
    vector steps, which holds for m^2 <= 2^(n-2) (measured for n = 10..24
    on a 2-vCPU x86_64 box with numpy 2.4)."""
    m = family._arr.size
    return m <= limit or (m * m) << 2 <= 1 << family.n


def _gather_has(family: Family, words: np.ndarray) -> np.ndarray:
    """Vectorized membership lookup straight off the packed table."""
    return (family._table[words >> 3] >> (words & 7).astype(np.uint8)) & 1


def is_delta_free(family: Family) -> bool:
    """True iff no member is the symmetric difference of two members.

    Pairs include A = B, so any family containing the empty set fails.
    """
    m = family._arr
    if m.size == 0:
        return True
    if m[0] == 0:  # empty set present: it equals A xor A
        return False
    if _scan_is_cheaper(family):
        return find_delta_violation(family) is None
    return not xor_pair_counts(family)[m].any()


def find_delta_violation(family: Family) -> tuple[int, int] | None:
    """The lexicographically first member pair (A, B) with A xor B a member."""
    members = family.members
    for i, a in enumerate(members):
        for b in members[i:]:
            if family._has(a ^ b):
                return (a, b)
    return None


def is_delta_closed(family: Family) -> bool:
    """True iff the symmetric difference of any two members is a member."""
    m = family._arr
    if m.size == 0:
        return True
    if _scan_is_cheaper(family):
        return find_closure_violation(family) is None
    counts = xor_pair_counts(family)
    return not ((counts != 0) & (family.table_bits() == 0)).any()


def find_closure_violation(family: Family) -> tuple[int, int] | None:
    """The lexicographically first member pair whose difference is absent."""
    members = family.members
    for i, a in enumerate(members):
        for b in members[i:]:
            if not family._has(a ^ b):
                return (a, b)
    return None


def _first_pair_collision(
    family: Family, combine
) -> tuple[int, int, int, int] | None:
    """First (A, B, C, D), pairs scanned in canonical order, with
    combine(A, B) == combine(C, D), {A, B} != {C, D}, A < B, C < D."""
    members = family.members
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
    members = family.members
    seen: set[int] = set()
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            d = a ^ b
            if d in seen:
                return False
            seen.add(d)
    return True


def find_quadruple_collision(family: Family) -> tuple[int, int, int, int] | None:
    """Witness for is_quadruple_delta_free: first (A, B, C, D) with
    A xor B = C xor D across distinct pairs."""
    return _first_pair_collision(family, lambda a, b: a ^ b)


def is_union_free(family: Family) -> bool:
    """True iff no two distinct member pairs share a union (same pair
    conventions as the quadruple difference check)."""
    if _pairs_outnumber_images(family):
        return False
    members = family.members
    seen: set[int] = set()
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            u = a | b
            if u in seen:
                return False
            seen.add(u)
    return True


def find_union_collision(family: Family) -> tuple[int, int, int, int] | None:
    """Witness for is_union_free: first (A, B, C, D) with A ∪ B = C ∪ D."""
    return _first_pair_collision(family, lambda a, b: a | b)


# Every freeness definition by name: (predicate, lexicographically first witness).
_CHECKS = {
    "pairwise": (is_delta_free, find_delta_violation),
    "quadruple": (is_quadruple_delta_free, find_quadruple_collision),
    "union": (is_union_free, find_union_collision),
    "closed": (is_delta_closed, find_closure_violation),
}
