"""Four-class parity partition of a family against a reference set.

Each member A falls into the class with index 2 * (|A| mod 2) +
(|A ∩ t| mod 2) against the reference word t; ``CLASS_NAMES`` spells the
four indices out.  Both parities are linear over GF(2), so the class of
A xor B is the xor of the classes of A and B, which is what makes the
partition useful for counting arguments.
"""

from __future__ import annotations

import numpy as np

from .construction import Generator
from .core import Family, _ascending_family, full_word, validate_word

#: Class names by index: (cardinality parity, trace parity).
CLASS_NAMES = ("even_even", "even_odd", "odd_even", "odd_odd")


def partition_family(family: Family, t: int) -> tuple[Family, Family, Family, Family]:
    """The family's four parity classes against t, by class index."""
    validate_word(t, family.n)
    words = family._arr
    index = (np.bitwise_count(words) & 1) << 1 | (np.bitwise_count(words & np.uint32(t)) & 1)
    # a selection from an ascending array stays ascending
    return tuple(_ascending_family(family.n, words[index == c]) for c in range(4))


def equal_split_expected(gen: Generator, t: int) -> bool:
    """Predict whether all four classes of generate_family(gen) against t
    have size 2^(n-3).

    The split is equal exactly when sc is nonempty and t avoids the four
    degenerate references {empty, s, sc, whole ground}; each of those
    makes the trace functional linearly dependent on the membership and
    cardinality functionals, emptying two classes.
    """
    if gen.n < 3:
        raise ValueError("equal split needs n >= 3 (class size 2^(n-3))")
    validate_word(t, gen.n)
    if gen.sc == 0:
        return False
    return t not in (0, gen.s, gen.sc, full_word(gen.n))
