"""Four-class partition machinery: the class index and its xor law, the
worked example, and the equal-split predicate against direct counting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import deltafree as df
from conftest import all_odd_family, fam, family_strategy

# class indices 2 * card + trace
EE, EO, OE, OO = range(4)


def class_indices(words: np.ndarray, t: int) -> np.ndarray:
    """Each word's class index against t, by numpy's popcount."""
    card = np.bitwise_count(words) & 1
    trace = np.bitwise_count(words & np.uint32(t)) & 1
    return card << 1 | trace


def split_is_equal(g: df.Generator, t: int) -> bool:
    """Whether every class of generate_family(g) against t has 2^(n-3) members."""
    quarter = 1 << (g.n - 3)
    return all(len(sub) == quarter for sub in df.partition_family(df.generate_family(g), t))


class TestClassIndex:
    def test_names_by_index(self):
        assert df.CLASS_NAMES == ("even_even", "even_odd", "odd_even", "odd_odd")

    def test_examples(self):
        # {1,2,3} is odd, and {} and {2,3} even, each with even trace against {}
        f = fam(4, (), (2, 3), (1, 2, 3))
        assert df.partition_family(f, 0) == (fam(4, (), (2, 3)), fam(4), fam(4, (1, 2, 3)), fam(4))
        split = df.partition_family(fam(4, (1, 3, 4)), df.word_of([3, 4], 4))
        assert split[OE] == fam(4, (1, 3, 4))

    def test_xor_of_indices_exhaustive(self):
        # for every t, a and b: the partition puts each word in its index's
        # class, and the class index of a xor b is idx(a) ^ idx(b)
        for n in range(1, 9):
            words = np.arange(1 << n, dtype=np.uint32)
            power_set = df.Family(n, words)
            for t in range(1 << n):
                idx = class_indices(words, t)
                split = df.partition_family(power_set, t)
                assert split == tuple(df.Family(n, words[idx == c]) for c in range(4))
                assert (idx[words[:, None] ^ words[None, :]] == idx[:, None] ^ idx[None, :]).all()


class TestPartitionFamily:
    def test_worked_example(self):
        family = fam(4, (1,), (2,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 3, 4), (2, 3, 4))
        split = df.partition_family(family, df.word_of([1, 2, 3], 4))
        assert split[OO] == fam(4, (1,), (2,))
        assert split[EO] == fam(4, (1, 4), (2, 4))
        assert split[OE] == fam(4, (1, 3, 4), (2, 3, 4))
        assert split[EE] == fam(4, (1, 3), (2, 3))
        assert all(len(sub) == 2 for sub in split)

    def test_empty_reference_puts_everything_in_even_trace(self):
        f = all_odd_family(3)
        split = df.partition_family(f, 0)
        assert len(split[OE]) == len(f)
        assert len(split[OO]) == 0
        assert len(split[EO]) == 0

    def test_reference_equal_to_sc_empties_matching_classes(self):
        for n in range(2, 7):
            for sc in range(1, (1 << n) - 1):
                g = df.Generator(n, sc)
                split = df.partition_family(df.generate_family(g), sc)
                assert len(split[OO]) == 0
                assert len(split[EE]) == 0

    @given(family_strategy(max_n=6), st.integers(min_value=0, max_value=63))
    def test_partition_is_a_partition(self, f, t):
        t &= (1 << f.n) - 1
        split = df.partition_family(f, t)
        assert len(split) == 4
        assert sum(map(len, split)) == len(f)
        recovered = sorted(w for sub in split for w in sub.members)
        assert tuple(recovered) == f.members
        for c, sub in enumerate(split):
            assert (class_indices(sub._arr, t) == c).all()
            # held with no re-check, yet the family a checked build gives
            assert sub == df.Family(f.n, list(sub)) and not sub._arr.flags.writeable

    @given(family_strategy(max_n=6), st.integers(min_value=0, max_value=63))
    def test_counts_agree_with_popcount(self, f, t):
        t &= (1 << f.n) - 1
        counts = np.bincount(class_indices(f._arr, t), minlength=4)
        assert [len(sub) for sub in df.partition_family(f, t)] == counts.tolist()

    def test_reference_must_fit_ground(self):
        with pytest.raises(ValueError):
            df.partition_family(df.Family(3, [1]), 1 << 3)


class TestEqualSplit:
    def test_needs_n_at_least_3(self):
        with pytest.raises(ValueError):
            df.equal_split_expected(df.Generator(2, 1), 0)

    def test_worked_example_counts_of_two(self):
        g = df.Generator(4, df.word_of([3, 4], 4))
        t = df.word_of([1, 2, 3], 4)
        assert df.equal_split_expected(g, t)
        split = df.partition_family(df.generate_family(g), t)
        assert all(len(sub) == 2 for sub in split)

    def test_degenerate_references_fail(self):
        g = df.Generator(4, df.word_of([3, 4], 4))
        for t in (0, g.s, g.sc, df.full_word(4)):
            assert not df.equal_split_expected(g, t)
            assert not split_is_equal(g, t)

    def test_all_odd_generator_never_splits_equally(self):
        g = df.Generator(4, 0)
        for t in range(16):
            assert not df.equal_split_expected(g, t)
            assert not split_is_equal(g, t)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_predicate_agrees_with_counting_exhaustive(self, n):
        for sc in range((1 << n) - 1):
            g = df.Generator(n, sc)
            for t in range(1 << n):
                assert df.equal_split_expected(g, t) == split_is_equal(g, t)
