"""Generator construction, recognition, and the structural invariants."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import given

import deltafree as df
from conftest import (
    all_odd_family,
    apply_gf2,
    complement_family,
    fam,
    generator_strategy,
    naive_generate,
    parity_census,
    parity_rule_family,
    solve_gf2,
)
from deltafree import construction

N4_CATALOG = fam(
    4, (1,), (2,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 3, 4), (2, 3, 4)
)


def all_generators(n):
    return [df.Generator(n, sc) for sc in range((1 << n) - 1)]


class TestGenerator:
    def test_full_ground_set_rejected(self):
        with pytest.raises(ValueError, match="not maximal"):
            df.Generator(4, df.full_word(4))

    def test_s_is_complement(self):
        g = df.Generator(5, df.word_of([3, 4, 5], 5))
        assert g.s == df.word_of([1, 2], 5)

    def test_word_must_fit_ground(self):
        with pytest.raises(ValueError):
            df.Generator(3, 1 << 3)

    @pytest.mark.parametrize("kind", [np.int64, np.uint32])
    def test_numpy_integer_sc_is_held_as_int(self, kind):
        # validate_word takes numpy integers, so the rest of the library must
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in a negated uint32
            for n in (3, 8):
                for sc in (0, 1, (1 << n) - 2):
                    g = df.Generator(n, kind(sc))
                    assert type(g.sc) is int and g == df.Generator(n, sc)
                    f = df.generate_family(g)
                    assert f == df.generate_family(df.Generator(n, sc))
                    assert df.recognize_generator(f) == g
                    assert df.canonical_form(f) == df.canonical_form(df.Family(n, f.members))
                    assert df.word_of([kind(e) for e in df.elements_of(sc)], n) == sc


class TestGenerateFamily:
    def test_worked_example_n5(self):
        g = df.Generator(5, df.word_of([3, 4, 5], 5))
        expected = fam(
            5,
            (1,), (2,),
            (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
            (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5), (2, 3, 5),
            (1, 3, 4, 5), (2, 3, 4, 5),
        )
        assert df.generate_family(g) == expected

    def test_empty_sc_gives_all_odd(self):
        for n in range(1, 10):
            assert df.generate_family(df.Generator(n, 0)) == all_odd_family(n)

    def test_singleton_s_gives_point_filter(self):
        g = df.Generator(4, df.word_of([2, 3, 4], 4))
        f = df.generate_family(g)
        assert f.members == tuple(w for w in range(16) if w & 1)

    @given(generator_strategy(max_n=7))
    def test_matches_naive_transcription(self, g):
        assert set(df.generate_family(g).members) == naive_generate(g.n, g.sc)

    def test_size_exhaustive_through_n10_sampled_to_n16(self):
        for n in range(1, 11):
            for g in all_generators(n):
                assert len(df.generate_family(g)) == 1 << (n - 1)
        rng = random.Random(1016)
        for n in range(11, 17):
            for sc in rng.sample(range((1 << n) - 1), 200):
                assert len(df.generate_family(df.Generator(n, sc))) == 1 << (n - 1)

    def test_delta_free_exhaustive_through_n12(self):
        for n in range(1, 13):
            for g in all_generators(n):
                assert df.is_delta_free(df.generate_family(g))

    def test_parity_split(self):
        for n in range(2, 9):
            for g in all_generators(n):
                even, odd = parity_census(df.generate_family(g))
                if g.sc == 0:
                    assert (even, odd) == (0, 1 << (n - 1))
                else:
                    assert even == odd == 1 << (n - 2)

    def test_families_pairwise_distinct_n8(self):
        for n in range(1, 9):
            seen = {df.generate_family(g).members for g in all_generators(n)}
            assert len(seen) == (1 << n) - 1

    def test_complement_is_delta_closed_n8(self):
        for n in range(1, 9):
            for g in all_generators(n):
                comp = complement_family(df.generate_family(g))
                assert df.is_delta_closed(comp)

    def test_every_generated_family_contains_its_singletons(self):
        for n in range(1, 9):
            for g in all_generators(n):
                f = df.generate_family(g)
                for j in range(n):
                    if g.s >> j & 1:
                        assert (1 << j) in f


class TestParityRuleOracle:
    """generate_family lists the words with odd trace against s; the
    conftest oracle applies the cardinality-against-sc rule to every word."""

    @staticmethod
    def generated_words(g, monkeypatch):
        """The word array generate_family hands to ``_ascending_family``,
        which holds it as it is: no sort, dedupe or range check follows."""
        seen = []
        hold = construction._ascending_family

        def capture(n, words, form=None):
            seen.append(words.copy())
            return hold(n, words, form)

        monkeypatch.setattr(construction, "_ascending_family", capture)
        family = df.generate_family(g)
        monkeypatch.undo()
        (words,) = seen
        assert words.dtype == np.uint32 and np.array_equal(words, family._arr)
        return words

    def test_two_elements(self):
        assert parity_rule_family(2, 0) == fam(2, (1,), (2,))

    def test_point_filter(self):
        f = parity_rule_family(4, df.word_of([2, 3, 4], 4))
        assert f.members == tuple(w for w in range(16) if w & 1)

    def test_empty_s_rejected(self):
        with pytest.raises(ValueError):
            df.Generator(3, df.full_word(3))

    def test_equals_generated_route_exhaustive_through_n12(self, monkeypatch):
        # the words come out strictly ascending, so Family need not sort them
        for n in range(1, 13):
            for g in all_generators(n):
                words = self.generated_words(g, monkeypatch)
                assert (words[1:] > words[:-1]).all()
                assert np.array_equal(words, parity_rule_family(n, g.sc)._arr)

    @pytest.mark.parametrize("n", [16, 21, 24])
    def test_large_n_with_least_element_of_s_low_middle_and_top(self, n, monkeypatch):
        rng = random.Random(n)
        full = df.full_word(n)
        for k in (0, n // 2, n - 1):
            s = (rng.getrandbits(n) | 1 << k) & full & -(1 << k)  # least element is k + 1
            g = df.Generator(n, full ^ s)
            words = self.generated_words(g, monkeypatch)
            assert words.size == 1 << (n - 1)
            assert (words[1:] > words[:-1]).all()
            assert np.array_equal(words, parity_rule_family(n, g.sc)._arr)


class TestRecoverAndRecognize:
    def test_all_odd_recovers_empty_sc(self):
        for n in range(1, 9):
            assert df.recognize_generator(all_odd_family(n)) == df.Generator(n, 0)

    def test_catalog_family_recovers_3_4(self):
        # the singleton members are {1} and {2}, so sc = {3,4}; the family
        # defined by {3} alone would contain {4}, which is absent here
        gen = df.recognize_generator(N4_CATALOG)
        assert gen.sc == df.word_of([3, 4], 4)
        assert df.generate_family(gen) == N4_CATALOG

    def test_no_singletons_is_not_recognized(self):
        f = fam(3, (1, 2), (1, 3), (2, 3), (1, 2, 3))  # right size, no singletons
        assert df.recognize_generator(f) is None

    def test_recognize_round_trip_exhaustive_through_n12(self):
        for n in range(1, 13):
            for g in all_generators(n):
                assert df.recognize_generator(df.generate_family(g)) == g

    def test_recognize_small_example(self):
        assert df.recognize_generator(fam(2, (1,), (1, 2))) == df.Generator(
            2, df.word_of([2], 2)
        )

    def test_recognize_rejects_non_maximum(self):
        assert df.recognize_generator(fam(3, (1, 2), (1, 3))) is None

    def test_recognize_rejects_wrong_family_with_singletons(self):
        # delta-free, has a singleton, but is not the family its sc defines
        f = fam(3, (1,), (1, 2))
        assert df.recognize_generator(f) is None

    @pytest.mark.parametrize("n", [16, 21, 24])
    def test_recognize_at_large_n(self, n):
        rng = random.Random(n)
        full = df.full_word(n)
        g = df.Generator(n, rng.randrange(full))
        f = df.generate_family(g)
        assert df.recognize_generator(f) == g

        # M A(s) = A(M^-T s) for an invertible M over GF(2)
        t = None
        while t is None:
            cols = [rng.getrandbits(n) for _ in range(n)]
            t = solve_gf2(cols, g.s, n)
        moved = df.Family(n, apply_gf2(cols, f._arr))
        assert df.recognize_generator(moved) == df.Generator(n, full ^ t)

        # one member swapped for an even-trace word
        words = f._arr
        swapped = np.append(np.delete(words, rng.randrange(words.size)), words[0] ^ words[-1])
        assert df.recognize_generator(df.Family(n, swapped)) is None

        # right size, no singletons
        nonzero = np.arange(1, full + 1, dtype=np.uint32)
        no_singletons = nonzero[(nonzero & (nonzero - 1)) != 0][: 1 << (n - 1)]
        assert df.recognize_generator(df.Family(n, no_singletons)) is None

class TestIsMaximumFamily:
    def test_all_odd_is_maximum(self):
        for n in range(1, 10):
            assert df.is_maximum_family(all_odd_family(n))

    def test_small_family_is_not(self):
        assert not df.is_maximum_family(fam(3, (1,), (1, 2)))

    def test_every_generated_family_is_maximum_n8(self):
        for n in range(1, 9):
            for g in all_generators(n):
                assert df.is_maximum_family(df.generate_family(g))

    def test_right_size_but_not_free(self):
        f = fam(2, (1,), (1, 2), (2,), (1, 2))  # dedupes to 3 members
        assert not df.is_maximum_family(f)
        bad = df.Family(2, [0, 1])
        assert not df.is_maximum_family(bad)
