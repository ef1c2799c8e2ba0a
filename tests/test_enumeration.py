"""The exhaustive search oracle against the construction, plus canonical
forms, isomorphism censuses, and the extension probe."""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given

import deltafree as df
from conftest import (
    all_odd_family,
    fam,
    family_strategy,
    naive_canonical_form,
    naive_delta_free,
    naive_maximum_families,
    parity_census,
    verify_completeness,
)
from deltafree import enumeration


def generated_catalog(n):
    return {df.generate_family(df.Generator(n, sc)) for sc in range((1 << n) - 1)}


class TestEnumerate:
    def test_n2_catalog_from_hand_enumeration(self):
        # all C(3,2) = 3 pairs of nonempty words are delta-free
        report = df.enumerate_maximum_families(2)
        assert report.total == 3
        expected = {fam(2, (1,), (2,)), fam(2, (1,), (1, 2)), fam(2, (2,), (1, 2))}
        assert set(report.families) == expected

    def test_n3_has_seven_families(self):
        report = df.enumerate_maximum_families(3)
        assert report.total == 7
        assert all_odd_family(3) in report.families
        assert fam(3, (1,), (1, 2), (1, 3), (1, 2, 3)) in report.families
        assert fam(3, (1,), (2,), (1, 3), (2, 3)) in report.families

    def test_n4_has_fifteen_families(self):
        assert df.enumerate_maximum_families(4).total == 15

    @pytest.mark.parametrize("n", range(2, 8))
    def test_oracle_equals_construction(self, n):
        report = df.enumerate_maximum_families(n)
        assert set(report.families) == generated_catalog(n)
        assert report.all_generated
        assert verify_completeness(report)

    def test_families_are_sorted_and_delta_free(self):
        report = df.enumerate_maximum_families(4)
        keys = [f.members for f in report.families]
        assert keys == sorted(keys)
        for f in report.families:
            assert naive_delta_free(f.members)
            assert any(w and not (w & (w - 1)) for w in f.members)  # has a singleton

    def test_even_odd_split_when_even_member_present(self):
        for n in (2, 3, 4, 5):
            for f in df.enumerate_maximum_families(n).families:
                even, odd = parity_census(f)
                if even:
                    assert even == odd == 1 << (n - 2)

    def test_class_sizes_sum_to_total(self):
        for n in (2, 3, 4, 5):
            report = df.enumerate_maximum_families(n)
            assert sum(report.class_sizes) == report.total

    def test_ground_size_bounds(self):
        with pytest.raises(ValueError):
            df.enumerate_maximum_families(1)
        with pytest.raises(ValueError):
            df.enumerate_maximum_families(8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_count_bound_search(self, n):
        report = df.enumerate_maximum_families(n)
        assert [f.members for f in report.families] == naive_maximum_families(n)

    def test_node_counts(self):
        # with the count bound alone, n = 5 visits 24,516 nodes
        nodes = {n: df.enumerate_maximum_families(n).nodes for n in range(2, 8)}
        assert nodes == {2: 6, 3: 24, 4: 96, 5: 376, 6: 1464, 7: 5720}

    def test_removing_a_family_breaks_completeness(self):
        report = df.enumerate_maximum_families(3)
        clipped = df.EnumerationReport(
            n=3,
            families=report.families[1:],
            total=report.total - 1,
            all_generated=True,
            class_sizes=report.class_sizes,
            elapsed=report.elapsed,
        )
        assert not verify_completeness(clipped)

    def test_elapsed_covers_the_class_census(self, monkeypatch):
        census = enumeration._class_size_census

        def slow_census(families):
            time.sleep(0.05)
            return census(families)

        monkeypatch.setattr(enumeration, "_class_size_census", slow_census)
        assert df.enumerate_maximum_families(3).elapsed >= 0.05


class TestCanonicalForm:
    def test_relabel_example(self):
        assert df.canonical_form(fam(3, (2,), (2, 3))) == fam(3, (1,), (1, 2))

    def test_idempotent(self):
        for f in df.enumerate_maximum_families(3).families:
            once = df.canonical_form(f)
            assert df.canonical_form(once) == once

    def test_canonical_forms_classify_relabelings(self):
        f = fam(4, (1,), (1, 2), (2, 3))
        for perm in itertools.permutations(range(4)):
            relabeled = df.Family(
                4,
                [
                    sum(1 << perm[i] for i in range(4) if w >> i & 1)
                    for w in f.members
                ],
            )
            assert df.canonical_form(relabeled) == df.canonical_form(f)

    def test_generated_family_canonical_form_depends_only_on_sc_size(self):
        for n in range(2, 6):
            by_size: dict[int, set] = {}
            for sc in range((1 << n) - 1):
                form = df.canonical_form(df.generate_family(df.Generator(n, sc)))
                by_size.setdefault(bin(sc).count("1"), set()).add(form.members)
            assert all(len(forms) == 1 for forms in by_size.values())
            distinct = {next(iter(v)) for v in by_size.values()}
            assert len(distinct) == len(by_size)

    def test_empty_family(self):
        assert df.canonical_form(df.Family(3)) == df.Family(3)

    def test_ground_too_large(self):
        # the search stops at n = 8; only a family that is no A(s) needs it
        with pytest.raises(ValueError, match="n <= 8"):
            df.canonical_form(df.Family(9, [1]))
        with pytest.raises(ValueError, match="n <= 8"):
            df.canonical_form(df.Family(9))
        words = df.generate_family(df.Generator(9, 0))._arr.copy()
        words[-1] = 0b11  # an even word, in no A(s) with all the odd ones but one
        with pytest.raises(ValueError, match="n <= 8"):
            df.canonical_form(df.Family(9, words))


class TestCanonicalFormOfMaximumFamilies:
    """A(s) goes to A(2^|s| - 1) with no search; other families search."""

    @staticmethod
    def a(n, s):
        return df.generate_family(df.Generator(n, df.full_word(n) ^ s))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_equals_search(self, n):
        for s in range(1, 1 << n):
            f = self.a(n, s)
            form = self.a(n, (1 << s.bit_count()) - 1)
            assert df.canonical_form(f) == form == enumeration._canonical_search(f)

    @pytest.mark.parametrize("n", [9, 12, 24])
    def test_closed_form_past_the_search_cap(self, n):
        rng = random.Random(n)
        for k in sorted({1, n // 2, n - 1, n}):
            s = sum(1 << i for i in rng.sample(range(n), k))
            want = df.generate_family(df.Generator(n, df.full_word(n) ^ ((1 << k) - 1)))
            f = self.a(n, s)
            assert df.canonical_form(f) == want
            # read off the members as well as from the generator's record
            assert df.canonical_form(df.Family(n, f._arr)) == want

    def test_maximum_families_skip_the_search(self, monkeypatch):
        def fail(family):
            raise AssertionError("searched a maximum family")

        monkeypatch.setattr(enumeration, "_canonical_search", fail)
        forms = {df.canonical_form(self.a(8, s)) for s in range(1, 256)}
        assert forms == {self.a(8, (1 << k) - 1) for k in range(1, 9)}

    @pytest.mark.parametrize("n", range(3, 7))
    def test_swapped_member_takes_the_search(self, n, monkeypatch):
        # 2^(n-1) words, all but one in A(s); from n = 3 on two A(s) share
        # at most 2^(n-2) words, so no swap gives a maximum family
        searched = []
        search = enumeration._canonical_search

        def spy(family):
            searched.append(family)
            return search(family)

        monkeypatch.setattr(enumeration, "_canonical_search", spy)
        rng = random.Random(n)
        for _ in range(8):
            f = self.a(n, rng.randrange(1, 1 << n))
            absent = np.flatnonzero(f.table_bits() == 0)
            words = f._arr.copy()
            words[rng.randrange(words.size)] = rng.choice(absent)
            g = df.Family(n, words)
            assert df.recognize_generator(g) is None
            searched.clear()
            assert df.canonical_form(g).members == naive_canonical_form(g).members
            assert searched == [g]


class TestCanonicalFormMatchesNaiveScan:
    """canonical_form and its bit-by-bit search against the scan of all n!
    relabelings."""

    @staticmethod
    def assert_matches(f, canon=df.canonical_form):
        assert canon(f).members == naive_canonical_form(f).members

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_generated_family(self, n):
        for f in generated_catalog(n):
            self.assert_matches(f)
            self.assert_matches(f, enumeration._canonical_search)

    def test_one_generated_family_per_class_n8(self):
        # A(s)'s class depends only on |s|, and s = ground minus sc
        for k in range(8):
            self.assert_matches(df.generate_family(df.Generator(8, (1 << k) - 1)))

    @given(family_strategy(max_n=6))
    @example(df.Family(5))
    @example(df.Family(3, [0]))
    @example(df.Family(4, [0, 3, 5, 6, 9, 15]))
    @example(df.Family(3, [6]))  # every first-level branch ties; only the later levels tell
    @example(df.Family(3, [3, 6]))  # two branches tie until the last level
    def test_random_families(self, f):
        self.assert_matches(f)

    def test_unions_of_cardinality_layers(self):
        # invariant under every relabeling, so every partial map ties
        for n in range(1, 8):
            for layers in range(1 << (n + 1)):
                words = [w for w in range(1 << n) if layers >> w.bit_count() & 1]
                self.assert_matches(df.Family(n, words), enumeration._canonical_search)

    def test_all_odd_family_n8(self):
        # the worst case for the search: all 8! partial maps tie to the last level
        self.assert_matches(all_odd_family(8), enumeration._canonical_search)

    @given(family_strategy(max_n=6))
    @example(df.Family(4, [1, 2, 4, 8, 3]))
    @example(df.Family(5, [1, 2, 12, 17, 31]))
    def test_merging_before_every_level(self, f):
        # with no threshold, survivors are merged before every level but
        # the last, whatever their symmetry
        saved = enumeration._MERGE_WORK
        enumeration._MERGE_WORK = 0
        try:
            self.assert_matches(f, enumeration._canonical_search)
        finally:
            enumeration._MERGE_WORK = saved


class TestCanonicalFormOfSymmetricFamilies:
    """Families with many tied partial maps, where survivors merge.  They
    are maximum families, which ``canonical_form`` would not search."""

    @staticmethod
    def relabel(f, perm):
        return df.Family(f.n, [sum(1 << perm[i] for i in range(f.n) if w >> i & 1) for w in f.members])

    @pytest.mark.parametrize("n", [7, 8])
    def test_invariant_under_relabeling(self, n):
        rng = random.Random(n)
        # A(s) for each |s| = n - k, the all-odd family among them (k = 0)
        families = [df.generate_family(df.Generator(n, (1 << k) - 1)) for k in range(n)]
        assert families[0] == all_odd_family(n)
        search = enumeration._canonical_search
        for f in families:
            form = search(f)
            for _ in range(4):
                perm = rng.sample(range(n), n)
                assert search(self.relabel(f, perm)) == form
        # each A(s) class has one form, and the forms separate the classes
        assert len({search(f) for f in families}) == n

    def test_all_odd_family_n8_memory(self):
        # without merging, all 8! tied partial maps reach the last level
        # and their temporaries peak near 20 MB
        f = all_odd_family(8)
        tracemalloc.start()
        try:
            enumeration._canonical_search(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


class TestIsomorphismClasses:
    def test_n2_sizes(self):
        assert df.enumerate_maximum_families(2).class_sizes == (1, 2)

    def test_n3_sizes(self):
        assert df.enumerate_maximum_families(3).class_sizes == (1, 3, 3)

    def test_n4_sizes(self):
        report = df.enumerate_maximum_families(4)
        assert report.class_sizes == (1, 4, 4, 6)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sizes_are_binomials(self, n):
        # one class per defining-set size k, of C(n, k) families
        report = df.enumerate_maximum_families(n)
        assert report.class_sizes == tuple(sorted(math.comb(n, k) for k in range(n)))


class TestFindExtension:
    def test_all_odd_family_has_none(self):
        for n in range(1, 7):
            assert df.find_extension(all_odd_family(n)) is None

    def test_two_member_example(self):
        f = fam(3, (1, 2, 3), (1, 2))
        assert df.find_extension(f) == df.word_of([1], 3)

    def test_agrees_with_naive_scan(self):
        for n in (2, 3, 4):
            for bits in range(1 << ((1 << n) - 1)):
                members = [w + 1 for w in range(15) if bits >> w & 1 and w + 1 < (1 << n)]
                if len(members) > 4 or not naive_delta_free(members):
                    continue
                f = df.Family(n, members)
                expected = None
                for x in range(1, 1 << n):
                    if x in members:
                        continue
                    if naive_delta_free(members + [x]):
                        expected = x
                        break
                assert df.find_extension(f) == expected

    def test_maximum_families_have_no_extension(self):
        for n in (2, 3, 4, 5):
            for f in df.enumerate_maximum_families(n).families:
                assert df.find_extension(f) is None

    def test_requires_delta_free_input(self):
        with pytest.raises(ValueError):
            df.find_extension(df.Family(3, [0]))

    @pytest.mark.parametrize("n", [13, 16, 21])
    def test_large_ground(self, n):
        rng = random.Random(n)
        full = df.full_word(n)
        maximum = df.generate_family(df.Generator(n, rng.randrange(full)))
        words = maximum._arr
        i = rng.randrange(words.size)
        # Every other absent word is a difference of at least 2^(n-1) - 2
        # ordered member pairs, so the removed word is the only extension.
        assert df.find_extension(df.Family(n, np.delete(words, i))) == words[i]
        assert df.find_extension(maximum) is None
        assert df.find_extension(df.Family(n, [])) == 1
        with pytest.raises(ValueError):
            df.find_extension(df.Family(n, np.append(words, words[0] ^ words[1])))
