"""Bitmask set words, families, and the freeness / closedness checkers.

A subset of the ground set {1, ..., n} is a plain int: element i is bit
i - 1, the empty set is 0, and the whole ground set is (1 << n) - 1.
A :class:`Family` bundles a ground size with its members stored once, as
a deduplicated ascending ``uint32`` array; everything downstream
(construction, enumeration, partitioning, random sampling) works on that
array, and a vector over all 2^n words is scattered from it only where a
caller needs one.

Every witness is the lexicographically first violating tuple: a pair scan
finds it while ``_scan_is_cheaper(F)`` holds, and past it a vector of
ordered pair counts does in O(n * 2^n) vector work.  The xor counts come
from two Walsh transforms, exact although the second one's partial sums
(up to 2^(3n)) overflow int64: it only adds and subtracts, so wrapping
arithmetic yields the true result modulo 2^64, and that result
2^n * counts[w] <= 2^48 lies below 2^63.  The pairwise and closure checks
are their witness finders (``is_*`` is ``find_* is None``), which settle
the empty set first.  Past the cutoff a maximum family, some A(s) (the
words at odd trace against s), is pairwise free by that linear form,
which ``_maximum_form`` reads off its singletons and checks in one O(m)
pass, so no pair counts are needed.  A family keeps that form, or its
absence, once read.  One built from its form, as ``generate_family``
builds A(s), has it on record from the start, and the pairwise check then
skips the scan as well.  Words the library builds ascending are held as
built, with no check or copy (``_ascending_family``); ``Family(n,
members)`` checks every outside input.  Quadruple (xor) and union (or)
are one engine over the combine op: a pigeonhole exit and
``_first_repeat``, the incremental scan the survival sweep runs too,
decide the predicate; the witness reads the xor or the union
(OR-convolution) pair counts.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

#: Largest supported ground size; the pair-count transform's int64 vector
#: has 2^MAX_GROUND entries (128 MiB).
MAX_GROUND = 24


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
        if not isinstance(e, (int, np.integer)) or isinstance(e, bool) or not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside 1..{n}")
        word |= 1 << (int(e) - 1)
    return word


def elements_of(word: int) -> tuple[int, ...]:
    """The 1-based elements of a word, ascending."""
    out = []
    w = int(word)
    if w < 0:
        raise ValueError(f"word {w:#x} does not fit any ground size")
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
    rather than coerced.  The family also records its linear form, the s
    with the family equal to A(s), when it is first asked for.
    """

    __slots__ = ("n", "_arr", "_hash", "_form")

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
        self._hold(n, np.array(words, dtype=np.uint32), None)

    def _hold(self, n: int, words: np.ndarray, form: int | None) -> None:
        """Store the members read-only, and the linear form if known:
        ``_form`` is None until ``_maximum_form`` reads it, then s for A(s)
        and 0 for any other family."""
        words.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arr", words)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_form", form)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Family is immutable")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return (Family, (self.n, self._arr))

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


def _ascending_family(n: int, words: np.ndarray, form: int | None = None) -> Family:
    """The Family of ``words``, a ``uint32`` array the library built strictly
    ascending and below 2^n, held as it is: no check and no copy.  ``form``
    is s when the words are A(s) (see ``Family._hold``)."""
    family = object.__new__(Family)
    family._hold(n, words, form)
    return family


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


def _subset_sums(vec: np.ndarray, step=np.add) -> np.ndarray:
    """Zeta transform over the subset lattice, in place; returns ``vec``:
    vec[w] becomes the sum of vec[v] over v <= w (v & ~w == 0).  With
    ``step=np.subtract`` it is the inverse, the Moebius transform."""
    for k in range(vec.size.bit_length() - 1):
        blocks = vec.reshape(-1, 2, 1 << k)
        step(blocks[:, 1, :], blocks[:, 0, :], out=blocks[:, 1, :])
    return vec


def _union_pair_counts(family: Family) -> np.ndarray:
    """counts[w] = number of ordered member pairs (A, B) with A | B = w: the
    Moebius transform of the squared subset sums (pairs with union inside
    w).  Every partial Moebius sum also counts pairs (union equal to w on
    the bits done, inside w on the rest), so int64 never overflows."""
    vec = np.zeros(1 << family.n, dtype=np.int64)
    vec[family._arr] = 1
    np.square(_subset_sums(vec), out=vec)
    return _subset_sums(vec, np.subtract)


def _scan_is_cheaper(family: Family) -> bool:
    """Whether a pair scan beats the transform path: up to 48 members, and
    while its m^2 / 2 steps stay under the transform's n * 2^n vector
    steps, which holds for m^2 <= 2^(n-2).  The rule is safe, not tight: a
    full set-lookup scan of a delta-free family stays cheaper than the
    pairwise witness's transform up to about m = 64 at n = 10, 190 at
    n = 14, 770 at n = 18, 3,200 at n = 22 and 7,300 at n = 24 (2-vCPU
    x86_64, numpy 2.4)."""
    m = family._arr.size
    return m <= 48 or (m * m) << 2 <= 1 << family.n


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


#: The singleton words {1}, ..., {MAX_GROUND}.
_SINGLETONS = np.left_shift(np.uint32(1), np.arange(MAX_GROUND, dtype=np.uint32))


def _maximum_form(family: Family) -> int | None:
    """The s with ``family`` equal to A(s), the 2^(n-1) words at odd trace
    against s, or None.

    The singletons in A(s) are the elements of s, so s is the union of the
    singleton members, found by one binary search per bit; a family of
    2^(n-1) words all at odd trace against it is A(s), and so delta-free:
    every A xor B has even trace.  s = 0 puts no word at odd trace, and
    stands for "no form" in the family's record: the pass runs at most
    once per family, and not at all for one built from its form.
    """
    if family._form is None:
        n, m = family.n, family._arr
        s = 0
        if m.size == 1 << (n - 1):
            bits = _SINGLETONS[:n]
            s = np.bitwise_or.reduce(bits[m.take(m.searchsorted(bits), mode="clip") == bits])
            s = int(s) if (np.bitwise_count(m & s) & 1).all() else 0
        object.__setattr__(family, "_form", s)
    return family._form or None


def find_delta_violation(family: Family) -> tuple[int, int] | None:
    """The lexicographically first member pair (A, B) with A xor B a member.

    A maximum family is certified free by its form (``_maximum_form``),
    with no scan or pair counts: always once the form is on record, and
    past ``_scan_is_cheaper`` by reading it; the rest take the counts.
    """
    if family._arr.size and family._arr[0] == 0:  # the empty set is A xor A
        return (0, 0)
    if (family._form is not None or not _scan_is_cheaper(family)) and _maximum_form(family):
        return None
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


def _images_distinct(family: Family, combine) -> bool:
    """No two distinct member pairs share a ``combine`` value.  The xor or
    union of a distinct pair is a nonzero word, so more than 2^n - 1 pairs
    collide by pigeonhole; below that ``_first_repeat`` decides."""
    m = family._arr
    pairs = m.size * (m.size - 1) // 2
    return pairs < 1 << family.n and _first_repeat(combine, m.tolist()) is None


def _first_collision(family: Family, combine) -> tuple[int, int, int, int] | None:
    """First (A, B, C, D), A < B, C < D, with combine(A, B) == combine(C, D):
    (A, B) the first member pair in scan order whose value another pair
    shares, (C, D) the next pair with that value.

    Past ``_scan_is_cheaper`` a value w != 0 of two distinct pairs has an
    ordered pair count >= 4 (the diagonal adds at most (w, w), for union),
    and the rows before (A, B)'s hold distinct values: fewer than 2^n + m
    pairs are scanned.  C is the least member from A on with a partner not
    through the A-B link (a partner below it would be an earlier one), D
    its least partner above it; union partners d of c have
    key & ~c <= d <= key, counted for every c by one subset sum.
    """
    m = family._arr
    if _scan_is_cheaper(family):
        rows, cols = np.triu_indices(m.size, 1)
        values = combine(m[rows], m[cols])
        _, value, count = np.unique(values, return_inverse=True, return_counts=True)
        shared = count[value] > 1
        if not shared.any():
            return None
        p, q = np.flatnonzero(value == value[shared.argmax()])[:2]
        return (int(m[rows[p]]), int(m[cols[p]]), int(m[rows[q]]), int(m[cols[q]]))
    xor = combine is operator.xor
    repeated = (xor_pair_counts if xor else _union_pair_counts)(family) >= 4
    for i in range(m.size - 1):
        hits = repeated[combine(m[i + 1 :], m[i])]
        if hits.any():
            break
    else:
        return None
    j = i + 1 + hits.argmax()
    key = combine(m[i], m[j])
    rest = m[i:]
    if xor:
        partners = family.table_bits()[rest ^ key]
    else:
        full = (1 << family.n) - 1
        above = np.zeros(1 << family.n, dtype=np.int32)
        above[full ^ m[(m | key) == key]] = 1
        _subset_sums(above)  # above[full ^ x]: members inside key that contain x
        partners = np.where((rest | key) == key, above[rest | (full ^ key)] - (rest == key), 0)
    partners[[0, j - i]] -= 1  # A and B are each other's partners
    k = i + (partners > 0).argmax()
    tail = m[(j if k == i else k) + 1 :]
    d = tail[(combine(tail, m[k]) == key).argmax()]
    return (int(m[i]), int(m[j]), int(m[k]), int(d))


def is_quadruple_delta_free(family: Family) -> bool:
    """True iff no two distinct member pairs share a symmetric difference:
    pairs are unordered with A != B and differ as sets, so a lone repeated
    difference is what fails."""
    return _images_distinct(family, operator.xor)


def find_quadruple_collision(family: Family) -> tuple[int, int, int, int] | None:
    """Witness for is_quadruple_delta_free: first (A, B, C, D) with
    A xor B = C xor D across distinct pairs.  On random families the pair
    counts beat the all-pairs scan from about m = 64 at n = 8, 128 at
    n = 12, 400 at n = 16, 1,700 at n = 20 and 5,000 at n = 24 (2-vCPU
    x86_64, numpy 2.4); ``_scan_is_cheaper`` scans up to 48, 48, 128, 512
    and 2,048 members."""
    return _first_collision(family, operator.xor)


def is_union_free(family: Family) -> bool:
    """True iff no two distinct member pairs share a union (same pair
    conventions as the quadruple difference check)."""
    return _images_distinct(family, operator.or_)


def find_union_collision(family: Family) -> tuple[int, int, int, int] | None:
    """Witness for is_union_free: first (A, B, C, D) with A | B = C | D.
    The union counts cost about 2/3 of the xor ones, so the break-even
    with the scan lies a little lower: m = 64, 128, 400, 1,500 and 4,500
    at n = 8, 12, 16, 20 and 24."""
    return _first_collision(family, operator.or_)


# Every freeness definition by name, to its lexicographically first witness
# (None when the family satisfies the definition).
_CHECKS = {
    "pairwise": find_delta_violation,
    "quadruple": find_quadruple_collision,
    "union": find_union_collision,
    "closed": find_closure_violation,
}
