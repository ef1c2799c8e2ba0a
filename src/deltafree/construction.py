"""Building and recognizing the maximum delta-free families.

Every maximum family (size 2^(n-1)) arises from a proper subset ``sc`` of
the ground set: take the odd-cardinality words whose intersection with
``sc`` is even together with the even words whose intersection is odd.
Equivalently, over GF(2) these are exactly the words with odd trace
against the complement ``s``; the second formulation is kept as an
independent cross-check of the first.

Recognition needs no rebuild: the singletons in the family of ``s`` are
exactly the elements of ``s``, and 2^(n-1) words with odd trace against a
nonempty ``s`` are all the words of that family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Family,
    _vector_parity,
    full_word,
    is_delta_free,
    validate_ground,
    validate_word,
)


@dataclass(frozen=True, slots=True)
class Generator:
    """A defining set for a maximum family: ``sc`` must be a proper subset.

    ``sc`` collects the ground elements *not* represented by singleton
    members; its complement ``s`` is the set of elements whose singletons
    belong to the generated family.
    """

    n: int
    sc: int

    def __post_init__(self) -> None:
        validate_word(self.sc, self.n)
        if self.sc == full_word(self.n):
            raise ValueError(
                "defining set equal to the whole ground set would generate "
                "the empty family, which is not maximal"
            )

    @property
    def s(self) -> int:
        """Complement of sc within the ground set."""
        return full_word(self.n) ^ self.sc


def generate_family(gen: Generator) -> Family:
    """The maximum delta-free family defined by ``gen``.

    Membership rule: cardinality parity and trace parity against ``sc``
    must differ (odd/even or even/odd).  Always 2^(n-1) words.
    """
    words = np.arange(1 << gen.n, dtype=np.uint32)
    card = _vector_parity(words)
    trace = _vector_parity(words & np.uint32(gen.sc))
    return Family(gen.n, words[card != trace])


def linear_form_family(n: int, s: int) -> Family:
    """All words with odd trace against ``s`` (s must be nonempty).

    This is the GF(2) reformulation of :func:`generate_family` with
    ``sc = ground \\ s``; it is used as the independent construction route.
    """
    validate_word(s, n)
    if s == 0:
        raise ValueError("s must be nonempty (sc must be a proper subset)")
    words = np.arange(1 << n, dtype=np.uint32)
    return Family(n, words[_vector_parity(words & np.uint32(s)) == 1])


def recognize_generator(family: Family) -> Generator | None:
    """The Generator whose family equals ``family`` exactly, if one exists.

    One vectorized pass: ``s`` is the union of the singleton members, and
    the answer is ``Generator(n, ground \\ s)`` iff the family has 2^(n-1)
    members, ``s`` is nonempty and every member has odd trace against ``s``.
    """
    m = family._arr
    if m.size != 1 << (family.n - 1):
        return None
    s = int(np.bitwise_or.reduce(m[(m & (m - 1)) == 0]))
    if not _vector_parity(m & np.uint32(s)).all():  # also refuses s = 0
        return None
    return Generator(family.n, full_word(family.n) ^ s)


def is_maximum_family(family: Family) -> bool:
    """True iff the family is delta-free and of the largest possible size."""
    return len(family) == 1 << (family.n - 1) and is_delta_free(family)
