"""Building and recognizing the maximum delta-free families.

Every maximum family (size 2^(n-1)) arises from a proper subset ``sc`` of
the ground set: take the odd-cardinality words whose intersection with
``sc`` is even together with the even words whose intersection is odd.
Over GF(2) these are exactly the words with odd trace against the
complement ``s``, the family A(s), and that linear form is what
:func:`generate_family` builds, in one pass and already in ascending
order.  The cardinality-against-``sc`` rule is the independent oracle the
tests compare it with.

Recognition needs no rebuild: the singletons in the family of ``s`` are
exactly the elements of ``s``, and 2^(n-1) words with odd trace against a
nonempty ``s`` are all the words of that family.  ``core._maximum_form``
reads ``s`` off that way, once per family, for :func:`recognize_generator`,
the canonical form and the delta-free check, which it spares the pair
counts on a maximum family.  A generated family skips even that pass: it
is held as built, with no sortedness check or copy, and with ``s`` on
record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Family, _ascending_family, _maximum_form, full_word, is_delta_free, validate_word


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
        object.__setattr__(self, "sc", int(self.sc))  # a numpy integer, too
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
    """The maximum delta-free family defined by ``gen``: the 2^(n-1) words
    with odd trace against ``s``, with ``s`` on record as its form."""
    return _family_of_form(gen.n, gen.s)


def _family_of_form(n: int, s: int) -> Family:
    """A(s) for a nonempty ``s`` at a valid ``n``, held with no re-check.

    Let k be the least element of ``s``.  A member's bit k is 1 xor the
    trace of its bits above k against ``s``, so the words with bit k set
    and nothing above it are members, and setting a higher bit i keeps a
    member a member iff bit k flips exactly when i is in ``s``.  Doubling
    the block once per bit above k lists every member in ascending order:
    the new half lies above the old one, and flipping bit k for a whole
    block of 2^k words keeps their order.
    """
    k = (s & -s).bit_length() - 1
    words = np.empty(1 << (n - 1), dtype=np.uint32)
    size = 1 << k
    words[:size] = np.arange(size, dtype=np.uint32) | np.uint32(size)
    for i in range(k + 1, n):
        np.bitwise_xor(words[:size], (1 << i) | (s >> i & 1) << k, out=words[size : 2 * size])
        size *= 2
    return _ascending_family(n, words, s)


def recognize_generator(family: Family) -> Generator | None:
    """The Generator whose family equals ``family`` exactly, if one exists.

    ``core._maximum_form`` finds the ``s`` with ``family`` equal to A(s)
    (the union of the singleton members, checked in one vectorized pass),
    and the answer is ``Generator(n, ground \\ s)``.
    """
    s = _maximum_form(family)
    if s is None:
        return None
    return Generator(family.n, full_word(family.n) ^ s)


def is_maximum_family(family: Family) -> bool:
    """True iff the family is delta-free and of the largest possible size.

    Such a family is some A(s), so the delta-free check certifies it by
    that form in one pass over the members and no pair counts.
    """
    return len(family) == 1 << (family.n - 1) and is_delta_free(family)
