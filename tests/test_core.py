"""Word algebra, Family behavior, and the four freeness/closedness checkers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import deltafree as df
from deltafree.core import _scan_is_cheaper
from conftest import (
    fam,
    family_strategy,
    naive_delta_closed,
    naive_delta_free,
    naive_quadruple_free,
    naive_union_free,
)

words8 = st.integers(min_value=0, max_value=255)


class TestWordAlgebra:
    def test_sym_diff_example(self):
        assert df.sym_diff(df.word_of([1, 2], 3), df.word_of([2, 3], 3)) == df.word_of(
            [1, 3], 3
        )

    @given(words8)
    def test_self_difference_is_empty(self, a):
        assert df.sym_diff(a, a) == 0

    @given(words8)
    def test_empty_is_identity(self, a):
        assert df.sym_diff(a, 0) == a

    def test_xor_group_laws_exhaustive_n8(self):
        all_words = np.arange(256, dtype=np.uint32)
        a = all_words[:, None, None]
        b = all_words[None, :, None]
        c = all_words[None, None, :]
        assert ((a ^ b) == (b ^ a).transpose(1, 0, 2)).all()
        assert (((a ^ b) ^ c) == (a ^ (b ^ c))).all()
        # cancellation: xor by a fixed word is a permutation of all words
        for a0 in range(256):
            assert len(np.unique(a0 ^ all_words)) == 256

    def test_card_parity_examples(self):
        assert df.card_parity(df.word_of([1, 2, 3], 4)) is df.Parity.ODD
        assert df.card_parity(0) is df.Parity.EVEN

    def test_card_parity_is_xor_homomorphic_exhaustive_n8(self):
        parities = [df.card_parity(w) for w in range(256)]
        for a in range(256):
            pa = parities[a]
            for b in range(256):
                assert parities[a ^ b] == (pa ^ parities[b])

    def test_trace_parity_examples(self):
        assert df.trace_parity(df.word_of([1, 3, 4], 4), df.word_of([3, 4], 4)) is df.Parity.EVEN
        assert df.trace_parity(df.word_of([2, 3], 4), 0) is df.Parity.EVEN

    @given(words8, words8, words8)
    def test_trace_parity_distributes_over_xor(self, a, b, t):
        assert df.trace_parity(a ^ b, t) == (df.trace_parity(a, t) ^ df.trace_parity(b, t))

    def test_word_of_validation(self):
        with pytest.raises(ValueError):
            df.word_of([0], 3)
        with pytest.raises(ValueError):
            df.word_of([4], 3)
        with pytest.raises(ValueError):
            df.validate_word(1 << 3, 3)
        with pytest.raises(ValueError):
            df.validate_ground(0)
        with pytest.raises(ValueError):
            df.validate_ground(df.MAX_GROUND + 1)

    def test_elements_roundtrip(self):
        for w in range(64):
            assert df.word_of(df.elements_of(w), 6) == w


class TestFamily:
    def test_dedupe_and_canonical_order(self):
        f = df.Family(3, [5, 1, 5, 3])
        assert f.members == (1, 3, 5)

    @given(st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    ))
    def test_array_input_matches_list_input(self, case):
        n, words = case
        want = df.Family(n, words)
        for arr in (np.array(words, dtype=np.uint32), np.array(sorted(set(words)), dtype=np.int64)):
            f = df.Family(n, arr)
            assert f == want
            assert all(type(w) is int for w in f.members)
            assert (f.table_bits() == want.table_bits()).all()
            arr[...] = 0  # the family keeps its own copy
            assert f == want

    def test_out_of_ground_array_rejected(self):
        for arr in (np.array([1, 4]), np.array([-1, 1]), np.array([4, 1])):
            with pytest.raises(ValueError, match="does not fit ground size 2"):
                df.Family(2, arr)

    def test_membership_table_agrees_with_members_exhaustive(self):
        for n in (1, 2, 3):
            for bits in range(1 << (1 << n)):
                members = [w for w in range(1 << n) if bits >> w & 1]
                f = df.Family(n, members)
                assert list(f.table_bits()) == [
                    1 if w in members else 0 for w in range(1 << n)
                ]
                assert f.members == tuple(members)

    @given(family_strategy(max_n=6))
    def test_contains_matches_members(self, f):
        member_set = set(f.members)
        for w in range(1 << f.n):
            assert (w in f) == (w in member_set)

    def test_out_of_ground_words_rejected(self):
        with pytest.raises(ValueError):
            df.Family(2, [4])
        f = df.Family(2, [1])
        with pytest.raises(ValueError):
            (1 << 2) in f

    def test_immutable(self):
        f = df.Family(2, [1])
        with pytest.raises(AttributeError):
            f.n = 3

    def test_equality_and_hash(self):
        assert df.Family(3, [1, 2]) == df.Family(3, [2, 1])
        assert df.Family(3, [1]) != df.Family(4, [1])
        assert hash(df.Family(3, [1, 2])) == hash(df.Family(3, [2, 1]))

    def test_complement(self):
        f = df.Family(2, [0, 3])
        assert df.complement_family(f).members == (1, 2)

    def test_parity_census(self):
        assert df.parity_census(fam(3, (1,), (1, 2), (1, 3), (1, 2, 3))) == (2, 2)
        assert df.parity_census(df.Family(3)) == (0, 0)


class TestDeltaFree:
    def test_mixed_parity_example_from_catalog(self):
        f = fam(3, (1,), (1, 2), (1, 3), (1, 2, 3))
        assert df.is_delta_free(f)
        assert df.find_delta_violation(f) is None

    def test_empty_set_member_fails(self):
        f = df.Family(3, [0, 5])
        assert not df.is_delta_free(f)
        assert df.find_delta_violation(f) == (0, 0)

    def test_all_even_family_fails(self):
        for n in range(2, 8):
            evens = [w for w in range(1 << n) if bin(w).count("1") % 2 == 0]
            assert not df.is_delta_free(df.Family(n, evens))

    def test_empty_family_is_free(self):
        assert df.is_delta_free(df.Family(4))

    def test_single_empty_set_fails(self):
        assert not df.is_delta_free(df.Family(4, [0]))

    def test_pairwise_disjoint_nonempty_sets_are_free(self):
        f = fam(6, (1, 2), (3,), (4, 5, 6))
        assert df.is_delta_free(f)

    def test_witness_is_first_in_member_order(self):
        # {1} xor {1,2} = {2}: scanning pairs in ascending order hits (1, 2) first
        f = df.Family(3, [1, 2, 3])
        assert df.find_delta_violation(f) == (1, 2)

    @given(family_strategy(max_n=6))
    def test_matches_naive_oracle(self, f):
        expected = naive_delta_free(f.members)
        assert df.is_delta_free(f) == expected
        assert (df.find_delta_violation(f) is None) == expected

    @given(family_strategy(max_n=6))
    def test_witness_actually_violates(self, f):
        witness = df.find_delta_violation(f)
        if witness is not None:
            a, b = witness
            assert a in f.members and b in f.members and (a ^ b) in f.members

    def test_transform_path_matches_naive_oracle(self):
        # > 48 members forces the transform path; a planted violation flips it
        base = df.all_odd_family(8)
        assert len(base) == 128
        assert df.is_delta_free(base) == naive_delta_free(base.members)
        spoiled = df.Family(8, list(base.members) + [df.word_of([1, 2], 8)])
        assert not df.is_delta_free(spoiled)
        assert not naive_delta_free(spoiled.members)

    def test_wide_ground_gather_path_matches_naive_oracle(self):
        # 60-member families at n = 22 are decided by the pair scan, which is
        # cheaper there than the Walsh transform that serves larger families
        rng = np.random.default_rng(22)
        for _ in range(8):
            words = rng.integers(0, 1 << 22, size=60)
            f = df.Family(22, words)
            assert df.is_delta_free(f) == naive_delta_free(f.members)
            assert df.is_delta_closed(f) == naive_delta_closed(f.members)
        evens22 = df.Family(22, [0, 3, 5, 6] + list(rng.integers(0, 1 << 21, 8) << 1))
        assert df.is_delta_closed(evens22) == naive_delta_closed(evens22.members)


class TestDeltaClosed:
    def test_all_even_family_is_closed(self):
        for n in range(1, 8):
            evens = [w for w in range(1 << n) if bin(w).count("1") % 2 == 0]
            assert df.is_delta_closed(df.Family(n, evens))

    def test_all_odd_family_is_not_closed(self):
        f = df.all_odd_family(3)
        assert not df.is_delta_closed(f)
        assert df.find_closure_violation(f) == (1, 1)

    def test_empty_family_is_closed(self):
        assert df.is_delta_closed(df.Family(2))

    @given(family_strategy(max_n=6))
    def test_matches_naive_oracle(self, f):
        expected = naive_delta_closed(f.members)
        assert df.is_delta_closed(f) == expected
        assert (df.find_closure_violation(f) is None) == expected

    def test_transform_path_on_large_subspace(self):
        evens = [w for w in range(256) if bin(w).count("1") % 2 == 0]
        assert df.is_delta_closed(df.Family(8, evens))
        assert not df.is_delta_closed(df.Family(8, evens[1:]))


class TestQuadrupleFree:
    def test_collision_example(self):
        f = fam(3, (1,), (2,), (1, 3), (2, 3))
        assert not df.is_quadruple_delta_free(f)
        # first pair in scan order that ever collides is ({1}, {2});
        # its difference {1,2} reappears as {1,3} xor {2,3}
        assert df.find_quadruple_collision(f) == (1, 2, 5, 6)

    def test_single_member_family_is_free(self):
        assert df.is_quadruple_delta_free(df.Family(3, [5]))
        assert df.find_quadruple_collision(df.Family(3, [5])) is None

    def test_three_singletons_are_free(self):
        f = fam(3, (1,), (2,), (3,))
        assert df.is_quadruple_delta_free(f)

    @given(family_strategy(max_n=5))
    def test_matches_naive_oracle(self, f):
        expected = naive_quadruple_free(f.members)
        assert df.is_quadruple_delta_free(f) == expected
        assert (df.find_quadruple_collision(f) is None) == expected

    @given(family_strategy(max_n=5))
    def test_witness_is_valid_and_first(self, f):
        witness = df.find_quadruple_collision(f)
        if witness is None:
            return
        a, b, c, d = witness
        assert {a, b} != {c, d} and a < b and c < d and (a, b) < (c, d)
        assert (a ^ b) == (c ^ d)
        members = set(f.members)
        assert {a, b, c, d} <= members
        # nothing lexicographically earlier collides
        earlier = [
            (x, y)
            for x, y in itertools.combinations(f.members, 2)
            if (x, y) < (a, b)
        ]
        for x, y in earlier:
            twins = [
                (u, v)
                for u, v in itertools.combinations(f.members, 2)
                if (u, v) != (x, y) and (u ^ v) == (x ^ y)
            ]
            assert not twins

    def test_transform_path_matches_scan(self):
        # 512 members at n = 10 outnumber the nonzero differences, so the
        # pigeonhole exit decides it; TestWideGroundTransform covers the transform
        f = df.all_odd_family(10)
        assert df.is_quadruple_delta_free(f) == naive_quadruple_free(f.members)

    @pytest.mark.parametrize("size", [6, 7])
    def test_pigeonhole_boundary_matches_naive_oracle(self, size):
        # 15 nonzero differences at n = 4: 6 members give 15 pairs (a scan),
        # 7 members give 21 pairs (an early exit)
        for words in itertools.combinations(range(16), size):
            f = df.Family(4, words)
            assert df.is_quadruple_delta_free(f) == naive_quadruple_free(words)


class TestUnionFree:
    def test_collision_example(self):
        f = fam(2, (1,), (2,), (1, 2))
        assert not df.is_union_free(f)
        assert df.find_union_collision(f) == (1, 2, 1, 3)

    def test_small_families_are_free(self):
        assert df.is_union_free(df.Family(3, [1]))
        assert df.is_union_free(fam(3, (1,), (2,)))

    @given(family_strategy(max_n=5))
    def test_matches_naive_oracle(self, f):
        expected = naive_union_free(f.members)
        assert df.is_union_free(f) == expected
        assert (df.find_union_collision(f) is None) == expected

    @pytest.mark.parametrize("size", [6, 7])
    def test_pigeonhole_boundary_matches_naive_oracle(self, size):
        # 15 nonzero unions at n = 4: 7 members give 21 pairs (an early exit)
        for words in itertools.combinations(range(16), size):
            f = df.Family(4, words)
            assert df.is_union_free(f) == naive_union_free(words)


def _gf2k_mul(a: int, b: int, k: int = 11, poly: int = 0b100000000101) -> int:
    """Product in GF(2^k) modulo the primitive polynomial x^11 + x^2 + 1."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= poly
    return out


def _sidon_family(size: int) -> df.Family:
    """{(x, x^3)} over GF(2^11) as n = 22 words: x -> x^3 is almost perfect
    nonlinear, so no two distinct pairs share a symmetric difference."""
    words = [x | _gf2k_mul(x, _gf2k_mul(x, x)) << 11 for x in range(1, size + 1)]
    return df.Family(22, words)


class TestWideGroundTransform:
    """The Walsh path is exact for every n <= MAX_GROUND, where the second
    transform's partial sums overflow int64 and wrap."""

    @pytest.mark.parametrize("n", [21, 24])
    def test_xor_pair_counts_match_bincount_oracle(self, n):
        rng = np.random.default_rng(n)
        words = [int(w) for w in rng.integers(1, 1 << n, 296)]
        a, b, c, d = words[:4]
        # a^b is also c^(a^b^c) and d^(a^b^d), and a member itself
        f = df.Family(n, words + [a ^ b ^ c, a ^ b ^ d, a ^ b])
        arr = np.array(f.members, dtype=np.int64)
        oracle = np.bincount((arr[:, None] ^ arr[None, :]).ravel(), minlength=1 << n)
        counts = df.xor_pair_counts(f)
        assert counts[a ^ b] >= 6
        assert np.array_equal(counts, oracle)

    def test_maximum_family_at_n21(self):
        f = df.generate_family(df.Generator(21, 0b1011))
        assert df.is_delta_free(f)
        a, b = f.members[:2]
        spoiled = df.Family(21, np.append(np.array(f.members, dtype=np.uint32), a ^ b))
        assert len(spoiled) == len(f) + 1
        assert not df.is_delta_free(spoiled)

    def test_n22_past_scan_cutoff_matches_naive_oracle(self):
        sidon = _sidon_family(1100)
        assert not _scan_is_cheaper(sidon, 256)  # the transform decides these
        a, b, c = sidon.members[:3]
        spoiled = df.Family(22, sidon.members + (a ^ b, a ^ b ^ c))
        for f in (sidon, spoiled):
            assert df.is_delta_free(f) == naive_delta_free(f.members)
            assert df.is_quadruple_delta_free(f) == naive_quadruple_free(f.members)
        assert df.is_delta_free(sidon) and df.is_quadruple_delta_free(sidon)
        assert not df.is_quadruple_delta_free(spoiled)

    def test_all_even_family_at_n21_is_closed(self):
        # x -> x ^ (x << 1) maps the 2^20 words below 2^20 one-to-one onto
        # the even-cardinality words of [21]
        x = np.arange(1 << 20, dtype=np.uint32)
        evens = df.Family(21, x ^ (x << 1))
        assert df.parity_census(evens) == (1 << 20, 0)
        assert df.is_delta_closed(evens)


class TestAllOddFamily:
    def test_n3_catalog(self):
        assert df.all_odd_family(3) == fam(3, (1,), (2,), (3,), (1, 2, 3))

    def test_n1(self):
        assert df.all_odd_family(1) == fam(1, (1,))

    def test_n4_catalog(self):
        listed = [(1,), (2,), (3,), (4,), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert df.all_odd_family(4) == fam(4, *listed)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_size_and_freeness(self, n):
        f = df.all_odd_family(n)
        assert len(f) == 1 << (n - 1)
        assert df.is_delta_free(f)
