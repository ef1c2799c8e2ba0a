"""Word algebra, Family behavior, and the four freeness/closedness checkers."""

from __future__ import annotations

import copy
import itertools
from math import isqrt
import operator
import pickle
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import deltafree as df
from deltafree import core
from deltafree.core import _first_repeat, _scan_is_cheaper
from conftest import (
    all_odd_family,
    apply_gf2,
    complement_family,
    fam,
    family_strategy,
    naive_closure_violation,
    naive_delta_closed,
    naive_delta_free,
    naive_delta_violation,
    naive_quadruple_collision,
    naive_quadruple_free,
    naive_union_collision,
    naive_union_free,
    parity_census,
    random_gl,
    solve_gf2,
)


class TestExports:
    # a new export needs an edit here, so the public surface grows only on purpose
    EXPORTS = (
        "CLASS_NAMES", "DEFINITIONS", "EnumerationReport", "ExperimentConfig",
        "FORMAT_TAG", "Family", "Generator", "MAX_GROUND", "SurvivalCurve",
        "SurvivalPoint", "canonical_form", "elements_of", "enumerate_maximum_families",
        "equal_split_expected", "estimate_survival", "family_from_json",
        "family_from_lines", "family_to_json", "family_to_lines",
        "find_closure_violation", "find_delta_violation", "find_extension",
        "find_quadruple_collision", "find_union_collision", "format_element_set",
        "full_word", "generate_family", "is_delta_closed", "is_delta_free",
        "is_maximum_family", "is_quadruple_delta_free", "is_union_free",
        "parse_element_set", "partition_family", "random_family",
        "recognize_generator", "validate_ground", "validate_word", "word_of",
        "xor_pair_counts",
    )

    def test_all_is_pinned(self):
        assert tuple(sorted(df.__all__)) == self.EXPORTS

    def test_every_export_resolves(self):
        assert all(hasattr(df, name) for name in df.__all__)


class TestWordAlgebra:
    def test_sym_diff_example(self):
        # xor of two words is the word of their symmetric difference
        assert df.word_of([1, 2], 3) ^ df.word_of([2, 3], 3) == df.word_of([1, 3], 3)

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

    @pytest.mark.parametrize("kind", [np.int64, np.uint32])
    def test_word_of_takes_numpy_integers(self, kind):
        # as validate_word does; the word is a Python int either way
        word = df.word_of([kind(1), kind(3)], 3)
        assert word == 0b101 and type(word) is int
        with pytest.raises(ValueError, match="outside 1..3"):
            df.word_of([kind(4)], 3)
        with pytest.raises(ValueError, match="outside 1..3"):
            df.word_of([kind(0)], 3)

    def test_elements_roundtrip(self):
        for w in range(64):
            assert df.word_of(df.elements_of(w), 6) == w

    @pytest.mark.parametrize("word", [-1, -(2**40), np.int64(-3)])
    def test_negative_word_is_refused(self, word):
        # a negative int has infinitely many set bits
        with pytest.raises(ValueError, match="does not fit any ground size"):
            df.elements_of(word)
        with pytest.raises(ValueError, match="does not fit any ground size"):
            df.format_element_set(word)


class TestFamily:
    def test_dedupe_and_canonical_order(self):
        f = df.Family(3, [5, 1, 5, 3])
        assert f.members == (1, 3, 5)
        assert df.Family(3, [np.int64(5), np.uint8(1)]).members == (1, 5)

    @pytest.mark.parametrize(
        "members",
        [
            [1.5, 2.0],
            ["3"],
            [True],
            [1, np.float64(2.0)],
            np.array([1.0, 2.0]),
            np.array([True]),
            np.array([[1, 2]]),
        ],
        ids=["floats", "str", "bool", "numpy-float", "float-array", "bool-array", "2d-array"],
    )
    def test_non_integer_words_rejected(self, members):
        with pytest.raises(ValueError):
            df.Family(3, members)

    @pytest.mark.parametrize(
        "members, bad",
        [([2**63], 2**63), ([1, -(2**70)], -(2**70)), ([2**64, 8], 2**64)],
        ids=["2^63", "-2^70", "2^64"],
    )
    def test_words_past_int64_rejected(self, members, bad):
        with pytest.raises(ValueError, match=f"^word {bad} does not fit ground size 3$"):
            df.Family(3, members)

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

    def test_contains_at_n24(self):
        s = df.word_of([2, 5, 11, 17, 20, 23], 24)  # even |s|: the full word is absent
        f = df.generate_family(df.Generator(24, df.full_word(24) ^ s))
        first, last = int(f._arr[0]), int(f._arr[-1])
        queries = [1 << i for i in range(24)] + [first, last, 0, df.full_word(24), last + 1]
        assert last + 1 <= df.full_word(24)
        for w in queries:
            want = bin(w & s).count("1") % 2 == 1
            for query in (w, np.uint32(w), np.int64(w)):
                assert (query in f) is want
        assert first in f and last in f and last + 1 not in f

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

    @pytest.mark.parametrize("source", ["generated", "lines file", "json file"])
    def test_copy_and_pickle_round_trip(self, source, tmp_path):
        f = df.generate_family(df.Generator(7, 0b0110101))
        if source != "generated":
            lines = source == "lines file"
            path = tmp_path / "family.txt"
            path.write_text((df.family_to_lines if lines else df.family_to_json)(f))
            with path.open("rb") as stream:
                f = (df.family_from_lines if lines else df.family_from_json)(stream)
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and hash(twin) == hash(f)
            assert twin.n == f.n and twin.members == f.members
            assert not twin._arr.flags.writeable
            assert df.is_delta_free(twin) and df.recognize_generator(twin) == df.Generator(7, 0b0110101)

    def test_complement(self):
        f = df.Family(2, [0, 3])
        assert complement_family(f).members == (1, 2)

    def test_parity_census(self):
        assert parity_census(fam(3, (1,), (1, 2), (1, 3), (1, 2, 3))) == (2, 2)
        assert parity_census(df.Family(3)) == (0, 0)


def _traced_peak(build):
    """(result, peak bytes tracemalloc saw while ``build()`` ran)."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    """A family holds its words once and builds nothing per possible word."""

    def test_family_build_peak(self):
        words = np.arange(1 << 21, dtype=np.uint32) * np.uint32(2) + np.uint32(1)
        f, peak = _traced_peak(lambda: df.Family(22, words))
        assert len(f) == 1 << 21
        assert peak <= 1.25 * words.nbytes

    def test_generate_family_peak(self):
        f, peak = _traced_peak(lambda: df.generate_family(df.Generator(22, 5)))
        assert len(f) == 1 << 21
        assert peak <= 2.25 * f._arr.nbytes


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
    def test_witness_matches_naive_oracle(self, f):
        assert df.find_delta_violation(f) == naive_delta_violation(f.members)

    @given(family_strategy(max_n=6))
    def test_witness_actually_violates(self, f):
        witness = df.find_delta_violation(f)
        if witness is not None:
            a, b = witness
            assert a in f.members and b in f.members and (a ^ b) in f.members

    def test_transform_path_matches_naive_oracle(self):
        # > 48 members forces the transform path; a planted violation flips it
        base = all_odd_family(8)
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


def _refuse_pair_counts(monkeypatch) -> None:
    """Make every ``xor_pair_counts`` call fail the test."""

    def refuse(family):
        raise AssertionError("xor_pair_counts called")

    monkeypatch.setattr(df.core, "xor_pair_counts", refuse)


class TestDeltaClosed:
    def test_all_even_family_is_closed(self):
        for n in range(1, 8):
            evens = [w for w in range(1 << n) if bin(w).count("1") % 2 == 0]
            assert df.is_delta_closed(df.Family(n, evens))

    def test_all_odd_family_is_not_closed(self):
        f = all_odd_family(3)
        assert not df.is_delta_closed(f)
        assert df.find_closure_violation(f) == (1, 1)

    def test_empty_family_is_closed(self):
        assert df.is_delta_closed(df.Family(2))

    @given(family_strategy(max_n=6))
    def test_matches_naive_oracle(self, f):
        expected = naive_delta_closed(f.members)
        assert df.is_delta_closed(f) == expected
        assert (df.find_closure_violation(f) is None) == expected

    @given(family_strategy(max_n=6))
    def test_witness_matches_naive_oracle(self, f):
        assert df.find_closure_violation(f) == naive_closure_violation(f.members)

    def test_transform_path_on_large_subspace(self):
        evens = [w for w in range(256) if bin(w).count("1") % 2 == 0]
        assert df.is_delta_closed(df.Family(8, evens))
        assert not df.is_delta_closed(df.Family(8, evens[1:]))

    def test_witness_matches_naive_oracle_on_every_size(self):
        # sizes up to 2^n at n <= 7, so past the scan cutoff (49 members) too;
        # without the empty set the first pair (m0, m0) already fails
        rng = random.Random(12)
        for _ in range(3000):
            n = rng.randint(1, 7)
            f = df.Family(n, rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            want = naive_closure_violation(f.members)
            assert df.find_closure_violation(f) == want
            if f.members and f.members[0] != 0:
                assert want == (f.members[0], f.members[0])

    def test_no_pair_counts_without_the_empty_set(self, monkeypatch):
        f = df.generate_family(df.Generator(18, 0b101))
        _refuse_pair_counts(monkeypatch)
        low = int(f._arr[0])
        assert df.find_closure_violation(f) == (low, low)
        assert not df.is_delta_closed(f)
        with pytest.raises(AssertionError, match="xor_pair_counts"):
            df.find_closure_violation(df.Family(18, np.append(f._arr, 0)))


def _past_scan_cutoff_families() -> list[df.Family]:
    """Seeded families of 49..200 words at n = 8..14, all decided by the pair
    counts: random words, part of a maximum family (free) and a subspace
    (closed), each with planted violations and with and without 0."""
    rng = random.Random(8)
    out = []
    for n in range(8, 15):
        size = rng.randint(max(49, isqrt(1 << (n - 2)) + 1), 200)
        words = rng.sample(range(1 << n), size)
        maximum = df.generate_family(df.Generator(n, rng.randrange((1 << n) - 1))).members
        free = rng.sample(maximum, min(size, len(maximum)))
        a, b = rng.sample(free, 2)
        span = {0}
        for v in rng.sample(range(1, 1 << n), 7):
            span |= {w ^ v for w in span}
        span = sorted(span)
        removed = rng.choice(span[1:])
        outside = rng.choice([w for w in range(1 << n) if w not in span])
        for members in (
            words,
            words + [0],
            free,
            free + [a ^ b],
            free + [0],
            span,
            span[1:],
            [w for w in span if w != removed],
            span + [outside],
        ):
            out.append(df.Family(n, members))
    return out


class TestMemberPairWitnesses:
    """The pairwise and closure witnesses past the scan cutoff, where one
    pair-count vector gives the first member and a lookup its partner."""

    @pytest.mark.parametrize(
        "find, is_ok, naive",
        [
            (df.find_delta_violation, df.is_delta_free, naive_delta_violation),
            (df.find_closure_violation, df.is_delta_closed, naive_closure_violation),
        ],
        ids=["pairwise", "closure"],
    )
    def test_transform_witnesses_match_naive_oracle(self, find, is_ok, naive):
        families = _past_scan_cutoff_families()
        assert not any(_scan_is_cheaper(f) for f in families)
        witnesses = []
        for f in families:
            want = naive(f.members)
            assert find(f) == want
            assert is_ok(f) == (want is None)
            witnesses.append(want)
        # the data holds free families and witnesses whose first member is
        # not the least member and whose partner differs from it
        assert None in witnesses
        assert any(w and w[0] != f._arr[0] and w[1] != w[0] for f, w in zip(families, witnesses))

    @pytest.mark.parametrize("n", [21, 24])
    def test_maximum_family(self, n, monkeypatch):
        # the form certifies A(s) and closure fails at (m0, m0):
        # neither needs the pair counts
        f = df.generate_family(df.Generator(n, 0b1011))
        _refuse_pair_counts(monkeypatch)
        low = int(f._arr[0])
        assert df.find_delta_violation(f) is None
        assert df.is_delta_free(f) and df.is_maximum_family(f)
        assert df.find_closure_violation(f) == (low, low)


def _greedy_cap(n: int, rng: random.Random) -> df.Family:
    """The random greedy delta-free family: the nonzero words in random
    order, each kept unless it is the xor of two kept words (or of a kept
    word with itself).  The result is complete: no word can be added."""
    kept: list[int] = []
    forbidden = {0}
    for x in rng.sample(range(1, 1 << n), (1 << n) - 1):
        if x not in forbidden:
            kept.append(x)
            forbidden.update(x ^ w for w in kept)
    return df.Family(n, kept)


class TestMaximumForm:
    """``core._maximum_form``: the s with F = A(s), which certifies
    delta-freeness without the pair counts, or None."""

    def test_matches_brute_force(self):
        # A(s) itself, A(s) with one word swapped, random 2^(n-1) words, and
        # families one word smaller or larger; the oracle is every s
        rng = random.Random(30)
        found = 0
        for _ in range(600):
            n = rng.randint(1, 8)
            s = rng.randrange(1, 1 << n)
            words = df.generate_family(df.Generator(n, df.full_word(n) ^ s)).members
            kind = rng.choice(["whole", "swapped", "random", "resized"])
            if kind == "swapped":
                out = [w for w in range(1 << n) if w not in words]
                words = list(words)
                words[rng.randrange(len(words))] = rng.choice(out)
            elif kind == "random":
                words = rng.sample(range(1 << n), len(words))
            elif kind == "resized":
                words = rng.sample(range(1 << n), len(words) + rng.choice([-1, 1]))
            f = df.Family(n, words)
            forms = [s for s in range(1, 1 << n) if f.members == tuple(
                w for w in range(1 << n) if (w & s).bit_count() & 1)]
            assert core._maximum_form(f) == (forms[0] if forms else None)
            found += bool(forms)
        assert 150 < found < 300

    def test_full_oversized_and_empty_families(self):
        f = df.generate_family(df.Generator(10, 0b11))
        spare = next(w for w in range(1, 1 << 10) if w not in f)
        assert core._maximum_form(f) == df.full_word(10) ^ 0b11
        assert core._maximum_form(df.Family(10, f.members + (spare,))) is None
        assert core._maximum_form(df.Family(10, f.members[1:])) is None
        assert core._maximum_form(df.Family(10)) is None
        assert core._maximum_form(df.Family(1, [1])) == 1
        assert core._maximum_form(df.Family(1, [0])) is None

    @pytest.mark.parametrize("n", range(8, 13))
    def test_free_families_in_no_form_take_the_transform(self, n, monkeypatch):
        # complete caps smaller than 2^(n-1) are no A(s), so the pair
        # counts still answer them past the cutoff
        rng = random.Random(n)
        caps = []
        while len(caps) < 3:
            f = _greedy_cap(n, rng)
            if len(f) > 48 and len(f) < 1 << (n - 1):
                caps.append(f)
        calls = []
        transform = df.core.xor_pair_counts
        monkeypatch.setattr(df.core, "xor_pair_counts", lambda f: calls.append(f) or transform(f))
        for f in caps:
            assert not _scan_is_cheaper(f)
            assert core._maximum_form(f) is None
            assert naive_delta_violation(f.members) is None
            assert df.find_delta_violation(f) is None
        assert calls == caps


def _swapped_member(n: int, rng: random.Random) -> df.Family:
    """A(s) for a random s with one member swapped for a nonzero non-member:
    2^(n-1) words, so it passes the size test of ``_maximum_form``, and from
    n = 3 on in no A(s)."""
    f = df.generate_family(df.Generator(n, rng.randrange((1 << n) - 1)))
    absent = np.flatnonzero(f.table_bits() == 0)[1:]
    words = f._arr.copy()
    words[rng.randrange(words.size)] = rng.choice(absent)
    return df.Family(n, words)


class TestRecordedForm:
    """A family computes its linear form at most once; a generated family
    carries it from the start and answers with no pass over its members."""

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_swapped_member_records_no_form(self, n):
        rng = random.Random(n)
        for _ in range(4):
            f = _swapped_member(n, rng)
            fresh = df.Family(n, f.members)
            assert f._form is None
            assert core._maximum_form(f) is None
            assert f._form == 0
            assert core._maximum_form(f) is None
            assert df.find_delta_violation(f) == df.find_delta_violation(fresh)
            if n <= 8:
                assert df.find_delta_violation(f) == naive_delta_violation(f.members)
            assert df.is_delta_free(f) == df.is_delta_free(fresh)
            assert df.recognize_generator(f) is None and df.recognize_generator(fresh) is None
            assert not df.is_maximum_family(f)
            if n <= 8:
                assert df.canonical_form(f) == df.canonical_form(fresh)
            else:
                for g in (f, fresh):
                    with pytest.raises(ValueError, match="no A\\(s\\)"):
                        df.canonical_form(g)

    def test_form_is_computed_once(self, monkeypatch):
        f = df.Family(6, df.generate_family(df.Generator(6, 0b1001)).members)
        counted = []
        count = np.bitwise_count
        monkeypatch.setattr(core.np, "bitwise_count", lambda *a: counted.append(1) or count(*a))
        for _ in range(3):
            assert core._maximum_form(f) == df.full_word(6) ^ 0b1001
        assert len(counted) == 1

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_generated_equals_built(self, n):
        rng = random.Random(n)
        for sc in {0, (1 << n) - 2, rng.randrange((1 << n) - 1)}:
            g = df.generate_family(df.Generator(n, sc))
            shuffled = g._arr.astype(np.int64)
            rng.shuffle(shuffled)
            for built in (df.Family(n, g.members), df.Family(n, shuffled)):
                assert g == built and hash(g) == hash(built)
                assert g._form == df.full_word(n) ^ sc and built._form is None
                assert core._maximum_form(built) == g._form
            assert not g._arr.flags.writeable

    def test_generated_family_answers_from_its_record(self, monkeypatch):
        cases = [(1, 0), (3, 0b001), (8, 0b10110010), (16, 0x0F0F)]
        families = [df.generate_family(df.Generator(n, sc)) for n, sc in cases]

        def fail(*args):
            raise AssertionError("a pass over the members")

        monkeypatch.setattr(core, "_SINGLETONS", None)  # _maximum_form's pass would raise
        monkeypatch.setattr(core, "_first_member_pair", fail)
        monkeypatch.setattr(core, "xor_pair_counts", fail)
        for (n, sc), f in zip(cases, families):
            assert df.is_delta_free(f) and df.is_maximum_family(f)
            assert df.recognize_generator(f) == df.Generator(n, sc)
            k = n - sc.bit_count()
            want = df.Generator(n, df.full_word(n) ^ ((1 << k) - 1))
            assert df.canonical_form(f).members == df.generate_family(want).members


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
        # pigeonhole exit decides it; TestCollisionWitness covers the pair counts
        f = all_odd_family(10)
        assert df.is_quadruple_delta_free(f) == naive_quadruple_free(f.members)

    @pytest.mark.parametrize("seed", range(3))
    def test_witness_matches_naive_oracle_free_and_not(self, seed):
        # at most 48 members: the all-pairs scan
        words = _greedy_pair_free_words(random.Random(seed), 20, 30, operator.xor)
        free = df.Family(20, words)
        spoiled = df.Family(20, words + [words[0] ^ words[1] ^ words[2]])
        assert df.find_quadruple_collision(free) is None
        assert naive_quadruple_collision(free.members) is None
        witness = df.find_quadruple_collision(spoiled)
        assert witness is not None
        assert witness == naive_quadruple_collision(spoiled.members)

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

    @given(family_strategy(max_n=6))
    def test_witness_matches_naive_oracle(self, f):
        assert df.find_union_collision(f) == naive_union_collision(f.members)

    @pytest.mark.parametrize("m", [20, 60])
    def test_witness_matches_naive_oracle_free_and_not(self, m):
        words = _greedy_pair_free_words(random.Random(m), 24, m, operator.or_)
        free = df.Family(24, words)
        spoiled = df.Family(24, words + [words[-1] | words[-2]])
        assert df.find_union_collision(free) is None
        assert naive_union_collision(free.members) is None
        witness = df.find_union_collision(spoiled)
        assert witness is not None
        assert witness == naive_union_collision(spoiled.members)

    @pytest.mark.parametrize("size", [6, 7])
    def test_pigeonhole_boundary_matches_naive_oracle(self, size):
        # 15 nonzero unions at n = 4: 7 members give 21 pairs (an early exit)
        for words in itertools.combinations(range(16), size):
            f = df.Family(4, words)
            assert df.is_union_free(f) == naive_union_free(words)


# Each pair-collision definition: its witness and the naive oracle.
_COLLISIONS = {
    "quadruple": (df.find_quadruple_collision, naive_quadruple_collision),
    "union": (df.find_union_collision, naive_union_collision),
}


def _by_both_paths(find, f: df.Family) -> list:
    """The witness by the pair scan and by the pair counts, whatever the size."""
    out = []
    for cheaper in (True, False):
        with mock.patch.object(core, "_scan_is_cheaper", return_value=cheaper):
            out.append(find(f))
    return out


@pytest.mark.parametrize("definition", sorted(_COLLISIONS))
class TestCollisionWitness:
    """The one engine behind both collision witnesses: a numpy pass over all
    pair values while ``_scan_is_cheaper`` holds, the pair counts past it.
    Both routes must give the naive oracle's first collision."""

    @given(f=family_strategy(max_n=8))
    def test_both_paths_match_naive_oracle(self, definition, f):
        find, naive = _COLLISIONS[definition]
        want = naive(f.members)
        assert _by_both_paths(find, f) == [want, want]

    @pytest.mark.parametrize("n", range(3, 9))
    def test_both_paths_match_naive_oracle_dense(self, definition, n):
        find, naive = _COLLISIONS[definition]
        rng = random.Random(n)
        for density in (0.05, 0.1, 0.2, 0.5, 0.9):
            f = df.Family(n, [w for w in range(1 << n) if rng.random() < density])
            want = naive(f.members)
            assert _by_both_paths(find, f) == [want, want]

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_maximum_family_matches_naive_oracle(self, definition, n):
        # 2^(n-1) members: the witness comes from the pair counts
        find, naive = _COLLISIONS[definition]
        f = df.generate_family(df.Generator(n, random.Random(n).randrange((1 << n) - 1)))
        assert find(f) == naive(f.members)

    def test_maximum_family_at_n13(self, definition):
        # the naive oracle would hold all 8.4M pairs here; these witnesses are
        # the ones an exhaustive pair scan gives
        find, _ = _COLLISIONS[definition]
        f = df.generate_family(df.Generator(13, random.Random(13).randrange((1 << 13) - 1)))
        assert find(f) == {"quadruple": (2, 3, 4, 5), "union": (2, 5, 3, 4)}[definition]

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_matches_naive_oracle_across_size_cutoff(self, definition, n):
        find, naive = _COLLISIONS[definition]
        rng = random.Random(n)
        cutoff = max(48, isqrt(1 << (n - 2)))  # the last size that is pair-scanned
        for m in (cutoff, cutoff + 1, 2 * cutoff):
            f = df.Family(n, rng.sample(range(1 << n), m))
            assert _scan_is_cheaper(f) == (m == cutoff)
            assert find(f) == naive(f.members)


class TestUnionTwin:
    """The union witness on hand-made families, by both paths.  Past the
    cutoff a member w counts (w, w) among the pairs with union w, and the
    second pair (C, D) starts at the least member from A on with a partner
    other than through the A-B link."""

    @pytest.mark.parametrize(
        "words, witness",
        [
            ([1, 6, 7], (1, 6, 1, 7)),  # in A's row; the key 7 is a member
            ([2, 5, 6], (2, 5, 5, 6)),  # in B's row
            ([1, 3, 6], (1, 6, 3, 6)),  # between A and B
            ([20, 42, 44, 50], (20, 42, 44, 50)),  # after B, partners of neither
            ([1, 2, 3], (1, 2, 1, 3)),  # the key 3 is a member and partners all inside it
            ([1, 3, 12, 14], (1, 14, 3, 12)),  # the key is the whole ground set
            ([1, 3], None),  # 3 ordered pairs have union 3, one unordered pair
        ],
        ids=["a-row", "b-row", "between", "after-b", "key-member", "full-key", "nested"],
    )
    def test_hand_made_cases(self, words, witness):
        f = df.Family(max(words).bit_length(), words)
        assert naive_union_collision(words) == witness
        assert _by_both_paths(df.find_union_collision, f) == [witness, witness]

    @pytest.mark.parametrize("n", [8, 12])
    def test_whole_ground_set_key(self, n):
        # the empty set, the whole ground set and 30 complement pairs of
        # half-size words: (0, full) is the first pair that collides, and
        # every member is a partner of that key
        full = df.full_word(n)
        halves = [w for w in range(1 << n) if w.bit_count() == n // 2 and w < full ^ w]
        picked = random.Random(n).sample(halves, 30)
        f = df.Family(n, [0, full] + picked + [full ^ w for w in picked])
        assert not _scan_is_cheaper(f)
        low = min(picked)
        assert df.find_union_collision(f) == (0, full, low, full ^ low)
        assert naive_union_collision(f.members) == (0, full, low, full ^ low)


_NAIVE_FREE = {operator.xor: naive_quadruple_free, operator.or_: naive_union_free}


@st.composite
def _distinct_words(draw):
    """Distinct words at n <= 8, in an order hypothesis chooses."""
    n = draw(st.integers(min_value=1, max_value=8))
    word = st.integers(min_value=0, max_value=(1 << n) - 1)
    return draw(st.lists(word, unique=True, max_size=40))


class TestFirstRepeat:
    """The scan behind both small-m pair predicates and the survival sweep
    takes words in any order and stops at the first prefix that is not free."""

    @pytest.mark.parametrize("combine", [operator.xor, operator.or_])
    @given(words=_distinct_words())
    def test_first_prefix_that_is_not_free(self, combine, words):
        naive_free = _NAIVE_FREE[combine]
        expected = next(
            (x for k, x in enumerate(words) if not naive_free(words[: k + 1])), None
        )
        assert _first_repeat(combine, words) == expected

    @pytest.mark.parametrize("combine", [operator.xor, operator.or_])
    @pytest.mark.parametrize("words", [[], [5], [0, 1]])
    def test_fewer_than_two_pairs_never_repeat(self, combine, words):
        assert _first_repeat(combine, words) is None

    def test_union_break_among_the_new_pairs_only(self):
        # 3 | 4 = 3 | 5 = 7, while the earlier pair's union is 4 | 5 = 5
        assert _first_repeat(operator.or_, [4, 5, 3]) == 3
        assert _first_repeat(operator.xor, [4, 5, 3]) is None


def _greedy_pair_free_words(rng: random.Random, n: int, m: int, combine) -> list[int]:
    """m random weight-5 words over {1..n} whose distinct pairs all have
    distinct images under ``combine``, drawn greedily."""
    words: list[int] = []
    images: set[int] = set()
    while len(words) < m:
        w = sum(1 << b for b in rng.sample(range(n), 5))
        new = [combine(w, x) for x in words]
        if w not in words and len(set(new)) == len(new) and images.isdisjoint(new):
            words.append(w)
            images.update(new)
    return words


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
        assert not _scan_is_cheaper(sidon)  # the witnesses come from the pair counts
        a, b, c = sidon.members[:3]
        spoiled = df.Family(22, sidon.members + (a ^ b, a ^ b ^ c))
        for f in (sidon, spoiled):
            assert df.is_delta_free(f) == naive_delta_free(f.members)
            assert df.is_quadruple_delta_free(f) == naive_quadruple_free(f.members)
            assert df.find_quadruple_collision(f) == naive_quadruple_collision(f.members)
        assert df.is_delta_free(sidon) and df.is_quadruple_delta_free(sidon)
        assert not df.is_quadruple_delta_free(spoiled)

    def test_every_check_finishes_at_max_ground(self):
        # A(s) plus the xor of its two least members violates all four
        f = df.generate_family(df.Generator(df.MAX_GROUND, 0b1011))
        spoiler = f._arr[0] ^ f._arr[1]
        f = df.Family(df.MAX_GROUND, np.insert(f._arr, f._arr.searchsorted(spoiler), spoiler))
        combines = {"quadruple": operator.xor, "union": operator.or_}
        for name, find in core._CHECKS.items():
            witness = find(f)
            if name in combines:
                assert _valid_collision(f, witness, combines[name]), name
            else:
                a, b = witness
                assert a <= b and a in f and b in f
                assert ((a ^ b) in f) == (name == "pairwise")

    def test_all_even_family_at_n21_is_closed(self):
        # x -> x ^ (x << 1) maps the 2^20 words below 2^20 one-to-one onto
        # the even-cardinality words of [21]
        x = np.arange(1 << 20, dtype=np.uint32)
        evens = df.Family(21, x ^ (x << 1))
        assert parity_census(evens) == (1 << 20, 0)
        assert df.is_delta_closed(evens)


def _gl_sample(n: int, seed: int, size: int, kind: str) -> tuple[df.Family, list[int]]:
    """A family of about ``size`` words and a random invertible M (its
    columns).  ``odd``: words of one A(s), so delta-free, plus a spoiler
    word half the time; ``span``: a random subspace, so closed, plus a
    spoiler half the time; ``any``: words drawn from the whole ground."""
    rng = random.Random(seed)
    if kind == "odd":
        s = rng.randrange(1, 1 << n)
        pool = df.generate_family(df.Generator(n, df.full_word(n) ^ s)).members
        words = rng.sample(pool, min(size, len(pool)))
    elif kind == "span":
        words = {0}
        for _ in range(min(size.bit_length() - 1, n)):
            v = rng.randrange(1 << n)
            words |= {w ^ v for w in words}
        words = list(words)
    else:
        words = rng.sample(range(1 << n), size)
    if kind != "any" and rng.random() < 0.5:
        words.append(rng.randrange(1 << n))
    return df.Family(n, words), random_gl(rng, n)


def _valid_collision(g: df.Family, witness, combine=operator.xor) -> bool:
    """(A, B, C, D) are members, A < B, C < D, the pairs differ and share
    their ``combine`` value."""
    a, b, c, d = witness
    return (a < b and c < d and (a, b) != (c, d) and combine(a, b) == combine(c, d)
            and all(w in g for w in witness))


def _gl_check(f: df.Family, cols: list[int], first: bool = False) -> None:
    """The pairwise, closed and quadruple predicates agree on F and M F,
    M maps a maximum family A(s) to one, pair counts move with M, and each
    witness, and its image under M, is a valid violation in its family;
    with ``first``, each witness on both sides is also the naive oracle's."""

    def image(*words):
        return [int(w) for w in apply_gf2(cols, np.array(words, dtype=np.uint32))]

    def valid_pair(g, a, b, present):
        return a <= b and a in g and b in g and (a ^ b in g) == present

    moved = df.Family(f.n, image(*f.members))
    assert len(moved) == len(f)
    form = core._maximum_form(f)
    if form is None:
        assert core._maximum_form(moved) is None
    else:  # <M x, t> = <x, M^T t> = <x, s>, so M A(s) = A(t)
        assert core._maximum_form(moved) == solve_gf2(cols, form, f.n)
    for pred in (df.is_delta_free, df.is_delta_closed, df.is_quadruple_delta_free):
        assert pred(moved) == pred(f)
    finds = (
        (df.find_delta_violation, naive_delta_violation, True),
        (df.find_closure_violation, naive_closure_violation, False),
    )
    for find, naive, present in finds:
        wf, wm = find(f), find(moved)
        assert (wf is None) == (wm is None)
        if first:
            assert wf == naive(f.members) and wm == naive(moved.members)
        if wf is not None:
            assert valid_pair(f, *wf, present) and valid_pair(moved, *wm, present)
            assert valid_pair(moved, *sorted(image(*wf)), present)
    wf, wm = df.find_quadruple_collision(f), df.find_quadruple_collision(moved)
    assert (wf is None) == (wm is None)
    if first:
        assert wf == naive_quadruple_collision(f.members)
        assert wm == naive_quadruple_collision(moved.members)
    if wf is not None:
        assert _valid_collision(f, wf) and _valid_collision(moved, wm)
        a, b, c, d = image(*wf)
        assert _valid_collision(moved, (*sorted((a, b)), *sorted((c, d))))
    every = apply_gf2(cols, np.arange(1 << f.n, dtype=np.uint32))
    assert np.array_equal(df.xor_pair_counts(moved)[every], df.xor_pair_counts(f))


class TestGLInvariance:
    """Metamorphic checks under GL(n, 2), which maps delta-free, closed and
    quadruple-free families to families of the same kind; the examples put
    each checker on both sides of the scan cutoff."""

    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32),
        size=st.integers(min_value=0, max_value=1 << 9),
        kind=st.sampled_from(["odd", "span", "any"]),
    )
    @example(n=10, seed=1, size=20, kind="odd")
    @example(n=10, seed=1, size=300, kind="odd")
    @example(n=10, seed=7, size=300, kind="odd")
    @example(n=10, seed=1, size=512, kind="odd")
    @example(n=10, seed=2, size=16, kind="span")
    @example(n=10, seed=2, size=128, kind="span")
    @example(n=10, seed=3, size=128, kind="span")
    @example(n=10, seed=3, size=40, kind="any")
    @example(n=10, seed=3, size=200, kind="any")
    def test_invariant_under_random_invertible_map(self, n, seed, size, kind):
        f, cols = _gl_sample(n, seed, min(size, 1 << (n - 1)), kind)
        _gl_check(f, cols, first=True)

    def test_n16_first_witnesses_past_the_cutoff(self):
        f, cols = _gl_sample(16, 29, 300, "any")
        assert not _scan_is_cheaper(f) and core._maximum_form(f) is None
        assert not df.is_delta_free(f) and not df.is_quadruple_delta_free(f)
        _gl_check(f, cols, first=True)

    def test_n21_past_the_cutoff(self):
        f, cols = _gl_sample(21, 23, 1000, "odd")
        assert not _scan_is_cheaper(f)
        assert not df.is_delta_free(f)  # the spoiler gives witnesses to map
        _gl_check(f, cols)

    def test_union_witness_past_the_cutoff_moves_off_the_image(self):
        # union freeness is only S_n-invariant: a general M does not carry the
        # witness along, and on both sides it must be the naive oracle's
        f, cols = _gl_sample(10, 5, 100, "any")
        moved = df.Family(10, apply_gf2(cols, f._arr))
        assert not _scan_is_cheaper(f) and not _scan_is_cheaper(moved)
        wf, wm = df.find_union_collision(f), df.find_union_collision(moved)
        assert wf == naive_union_collision(f.members)
        assert wm == naive_union_collision(moved.members)
        a, b, c, d = (int(w) for w in apply_gf2(cols, np.array(wf, dtype=np.uint32)))
        assert a | b != c | d


class TestTranslationInvariance:
    """x -> x ^ t keeps every difference, so quadruple freeness, unlike
    pairwise freeness, is invariant under all of AGL(n, 2)."""

    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
        size=st.integers(min_value=0, max_value=1 << 9),
        kind=st.sampled_from(["odd", "span", "any"]),
    )
    @example(n=10, seed=1, size=300, kind="odd")
    @example(n=16, seed=4, size=600, kind="any")
    def test_quadruple_under_translation(self, n, seed, size, kind):
        f, _ = _gl_sample(n, seed, min(size, 1 << (n - 1)), kind)
        t = random.Random(seed).randrange(1 << n)
        moved = df.Family(n, f._arr ^ np.uint32(t))
        free = df.is_quadruple_delta_free(f)
        assert df.is_quadruple_delta_free(moved) == free
        wf, wm = df.find_quadruple_collision(f), df.find_quadruple_collision(moved)
        assert (wf is None) == (wm is None) == free
        if wf is not None:
            assert _valid_collision(f, wf) and _valid_collision(moved, wm)
            a, b, c, d = (w ^ t for w in wf)
            assert _valid_collision(moved, (*sorted((a, b)), *sorted((c, d))))


class TestAllOddFamily:
    """The family of sc = {}: every odd-cardinality subset."""

    def test_n3_catalog(self):
        assert df.generate_family(df.Generator(3, 0)) == fam(3, (1,), (2,), (3,), (1, 2, 3))

    def test_n1(self):
        assert df.generate_family(df.Generator(1, 0)) == fam(1, (1,))

    def test_n4_catalog(self):
        listed = [(1,), (2,), (3,), (4,), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert df.generate_family(df.Generator(4, 0)) == fam(4, *listed)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_size_and_freeness(self, n):
        f = df.generate_family(df.Generator(n, 0))
        assert len(f) == 1 << (n - 1)
        assert df.is_delta_free(f)
