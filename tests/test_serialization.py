"""Round-trips and rejection behavior for the lines and json formats, and
the table writers and bulk readers against the per-set oracles."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import deltafree as df
from conftest import (
    fam,
    oracle_from_json,
    oracle_from_lines,
    oracle_to_json,
    oracle_to_lines,
    outcome,
    wide_family_strategy,
)


def every_family(n):
    for bits in range(1 << (1 << n)):
        yield [w for w in range(1 << n) if bits >> w & 1]


class TestLinesFormat:
    def test_basic_rendering(self):
        f = fam(3, (1,), (1, 3))
        assert df.family_to_lines(f) == "1\n1 3\n"

    def test_empty_set_token(self):
        assert df.family_to_lines(df.Family(3, [0])) == "-\n"
        assert df.family_from_lines("-\n", 3) == df.Family(3, [0])

    def test_empty_family(self):
        assert df.family_to_lines(df.Family(3)) == ""
        assert df.family_from_lines("", 3) == df.Family(3)

    def test_ground_inferred_from_largest_element(self):
        f = df.family_from_lines("1 3\n2\n")
        assert f.n == 3

    def test_explicit_ground_overrides(self):
        f = df.family_from_lines("1\n", 5)
        assert f.n == 5

    def test_round_trip_exhaustive_small(self):
        for n in (1, 2, 3):
            for members in every_family(n):
                f = df.Family(n, members)
                assert df.family_from_lines(df.family_to_lines(f), n) == f

    def test_round_trip_random_to_n12(self):
        rng = random.Random(9012)
        for _ in range(500):
            n = rng.randint(1, 12)
            members = rng.sample(range(1 << n), rng.randint(0, min(64, 1 << n)))
            f = df.Family(n, members)
            assert df.family_from_lines(df.family_to_lines(f), n) == f

    def test_rejects_garbage_tokens(self):
        with pytest.raises(ValueError, match="cannot parse"):
            df.family_from_lines("1 two\n", 3)

    def test_rejects_unsorted_elements(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            df.family_from_lines("3 1\n", 3)

    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            df.family_from_lines("1 1\n", 3)

    def test_rejects_out_of_ground_elements(self):
        with pytest.raises(ValueError):
            df.family_from_lines("4\n", 3)


class TestJsonFormat:
    def test_document_shape(self):
        payload = json.loads(df.family_to_json(fam(3, (1,), (1, 3))))
        assert payload == {"format": df.FORMAT_TAG, "n": 3, "sets": [[1], [1, 3]]}

    def test_round_trip_exhaustive_small(self):
        for n in (1, 2, 3):
            for members in every_family(n):
                f = df.Family(n, members)
                assert df.family_from_json(df.family_to_json(f)) == f

    def test_round_trip_preserves_ground_without_witnessing_element(self):
        f = df.Family(5, [1])  # no member contains element 5
        assert df.family_from_json(df.family_to_json(f)).n == 5

    def test_round_trip_random_to_n12(self):
        rng = random.Random(3456)
        for _ in range(500):
            n = rng.randint(1, 12)
            members = rng.sample(range(1 << n), rng.randint(0, min(64, 1 << n)))
            f = df.Family(n, members)
            assert df.family_from_json(df.family_to_json(f)) == f

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            df.family_from_json("{nope")

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            df.family_from_json('{"n": 3}')

    def test_rejects_wrong_tag(self):
        with pytest.raises(ValueError, match="format tag"):
            df.family_from_json('{"format": "other/9", "n": 2, "sets": []}')

    def test_rejects_unsorted_set(self):
        with pytest.raises(ValueError, match=r"set \[2, 1\] is not strictly increasing"):
            df.family_from_json('{"n": 3, "sets": [[2, 1]]}')

    def test_rejects_non_integer_elements(self):
        with pytest.raises(ValueError):
            df.family_from_json('{"n": 3, "sets": [["a"]]}')

    def test_rejects_bad_ground(self):
        with pytest.raises(ValueError):
            df.family_from_json('{"n": 0, "sets": []}')
        with pytest.raises(ValueError):
            df.family_from_json('{"n": 99, "sets": []}')


class TestAgainstOracles:
    @given(wide_family_strategy())
    def test_writers_match_oracle(self, f):
        assert df.family_to_lines(f) == oracle_to_lines(f)
        assert df.family_to_json(f) == oracle_to_json(f)

    @given(wide_family_strategy())
    def test_readers_match_oracle(self, f):
        lines = oracle_to_lines(f)
        assert df.family_from_lines(lines, f.n) == f
        assert df.family_from_lines(lines) == oracle_from_lines(lines)
        assert df.family_from_json(oracle_to_json(f)) == f

    def test_maximum_family_n16_matches_oracle(self):
        f = df.generate_family(df.Generator(16, 0b1010_0000_0000_0110))
        lines, doc = oracle_to_lines(f), oracle_to_json(f)
        assert df.family_to_lines(f) == lines
        assert df.family_to_json(f) == doc
        assert df.family_from_lines(lines) == f
        assert df.family_from_json(doc) == f

    @pytest.mark.parametrize("n, sc", [(1, 0), (5, 3), (12, 7), (13, 4096), (16, 1)])
    def test_canonical_files_skip_the_set_by_set_parse(self, monkeypatch, n, sc):
        f = df.generate_family(df.Generator(n, sc))
        lines, doc = oracle_to_lines(f), oracle_to_json(f)

        def refuse(*args):
            raise AssertionError("set-by-set parse reached")

        monkeypatch.setattr("deltafree.serialization._family_of_sets", refuse)
        assert df.family_from_lines(lines) == f
        assert df.family_from_lines(lines.rstrip("\n"), n) == f
        assert df.family_from_json(doc) == f

    @given(
        st.text(alphabet="0123456789 -\n#\t\r+", max_size=40),
        st.one_of(st.none(), st.integers(min_value=0, max_value=26)),
    )
    def test_lines_reader_matches_oracle_on_any_text(self, text, n):
        assert outcome(df.family_from_lines, text, n) == outcome(oracle_from_lines, text, n)

    @given(
        st.one_of(st.integers(min_value=-1, max_value=26), st.booleans()),
        st.lists(
            st.one_of(
                st.lists(st.integers(min_value=-1, max_value=26), max_size=5),
                st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=2)), max_size=2),
                st.integers(),
            ),
            max_size=6,
        ),
    )
    def test_json_reader_matches_oracle_on_any_document(self, n, sets):
        text = json.dumps({"n": n, "sets": sets})
        assert outcome(df.family_from_json, text) == outcome(oracle_from_json, text)

    @pytest.mark.parametrize(
        "text, n",
        [
            ("1 two\n", 3),
            ("3 1\n", 3),
            ("1 1\n", 3),
            ("4\n", 3),
            ("0\n", None),
            ("# a comment\n1 2\n", None),
            ("1\n\n2\n", None),
            ("1 2\r\n2\r\n", None),
            ("1\t2\n", None),
            ("01\n", None),
            ("+3\n", None),
            ("100\n", None),
            ("- 1\n", None),
            ("1 -\n", None),
            ("-1\n", None),
            ("--\n", None),
            ("1  2\n", None),
            (" 1\n", None),
            ("1 2\n1 2\n", None),
            ("2\n1\n", None),
            ("25\n", None),
            ("1 2", None),
            ("1\n", 25),
        ],
    )
    def test_lines_fallback_table(self, text, n):
        assert outcome(df.family_from_lines, text, n) == outcome(oracle_from_lines, text, n)

    @pytest.mark.parametrize(
        "sets, n",
        [
            ([[True]], 3),
            ([[1.0]], 3),
            ([["1"]], 3),
            ([[[1]]], 3),
            ([[2, 1]], 3),
            ([[1, 1]], 3),
            ([[4]], 3),
            ([[0]], 3),
            ([[10**30]], 3),
            ([1], 3),
            ([[2], [1], [2]], 3),
            ([[1]], 25),
            ([[1]], 0),
        ],
    )
    def test_json_fallback_table(self, sets, n):
        text = json.dumps({"n": n, "sets": sets})
        assert outcome(df.family_from_json, text) == outcome(oracle_from_json, text)


class TestElementSetSpecs:
    def test_comma_and_space_forms(self):
        assert df.parse_element_set("3,4,5", 5) == df.word_of([3, 4, 5], 5)
        assert df.parse_element_set("3 4 5", 5) == df.word_of([3, 4, 5], 5)

    def test_empty_means_empty_set(self):
        assert df.parse_element_set("", 4) == 0
        assert df.parse_element_set("-", 4) == 0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            df.parse_element_set("1,x", 4)
        with pytest.raises(ValueError):
            df.parse_element_set("9", 4)

    def test_brace_rendering(self):
        assert df.format_element_set(df.word_of([3, 4], 4)) == "{3,4}"
        assert df.format_element_set(0) == "{}"
