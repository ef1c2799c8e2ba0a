"""Four-class parity partition of a family against a reference set.

Each member falls into one of four classes keyed by (cardinality parity,
trace parity against the reference word t).  Classes compose under xor:
the class of A xor B is the componentwise xor of the classes of A and B,
which is what makes the partition useful for counting arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .construction import Generator, generate_family
from .core import Family, Parity, _vector_parity, card_parity, full_word, trace_parity, validate_word


class ParityPair(NamedTuple):
    """(cardinality parity, trace parity); xor acts componentwise."""

    card: Parity
    trace: Parity

    def __xor__(self, other: "ParityPair") -> "ParityPair":  # type: ignore[override]
        return ParityPair(self.card ^ other.card, self.trace ^ other.trace)


#: The four classes in deterministic order (card, trace) = ee, eo, oe, oo.
ALL_CLASSES = tuple(
    ParityPair(Parity(c), Parity(t)) for c in (0, 1) for t in (0, 1)
)


def class_of(word: int, t: int) -> ParityPair:
    """The parity class of a single word against reference t."""
    return ParityPair(card_parity(word), trace_parity(word, t))


def delta_class(p: ParityPair, q: ParityPair) -> ParityPair:
    """Class of the symmetric difference of words taken from classes p, q."""
    return p ^ q


@dataclass(frozen=True, slots=True)
class PartitionCounts:
    """Result of partitioning a family: per-class sizes and subfamilies."""

    counts: dict[ParityPair, int]
    subfamilies: dict[ParityPair, Family]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _class_indices(family: Family, t: int) -> np.ndarray:
    """Per-member class index 2*card + trace, vectorized."""
    card = _vector_parity(family._arr)
    trace = _vector_parity(family._arr & np.uint32(t))
    return (card.astype(np.int64) << 1) | trace


def partition_family(family: Family, t: int) -> PartitionCounts:
    """Split the family into its four parity classes against t."""
    validate_word(t, family.n)
    counts: dict[ParityPair, int] = {}
    subfamilies: dict[ParityPair, Family] = {}
    if family._arr.size:
        idx = _class_indices(family, int(t))
    else:
        idx = np.zeros(0, dtype=np.int64)
    for pair in ALL_CLASSES:
        key = (int(pair.card) << 1) | int(pair.trace)
        chosen = family._arr[idx == key]
        counts[pair] = int(chosen.size)
        subfamilies[pair] = Family(family.n, chosen)
    return PartitionCounts(counts=counts, subfamilies=subfamilies)


def partition_counts(family: Family, t: int) -> dict[ParityPair, int]:
    """Class sizes only; the fast path for exhaustive sweeps."""
    validate_word(t, family.n)
    counts = dict.fromkeys(ALL_CLASSES, 0)
    if family._arr.size:
        binned = np.bincount(_class_indices(family, int(t)), minlength=4)
        for pair in ALL_CLASSES:
            counts[pair] = int(binned[(int(pair.card) << 1) | int(pair.trace)])
    return counts


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


def equal_split_observed(gen: Generator, t: int) -> bool:
    """Direct counting companion to :func:`equal_split_expected`."""
    if gen.n < 3:
        raise ValueError("equal split needs n >= 3 (class size 2^(n-3))")
    quarter = 1 << (gen.n - 3)
    counts = partition_counts(generate_family(gen), t)
    return all(c == quarter for c in counts.values())
