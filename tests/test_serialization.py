"""Round-trips and rejection behavior for the lines and json formats, the
table renderer and block readers against the per-set oracles, the block
readers on binary streams and on files of many blocks, and ``generate``
written in slices."""

from __future__ import annotations

import io
import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import deltafree as df
from deltafree import cli, serialization
from conftest import (
    fam,
    family_strategy,
    oracle_from_json,
    oracle_from_lines,
    oracle_render_text,
    oracle_to_json,
    oracle_to_lines,
    outcome,
    wide_family_strategy,
)


def writer_document(n, sets):
    """The writer's json layout for any ``n`` and list of sets."""
    return json.dumps({"format": df.FORMAT_TAG, "n": n, "sets": sets}, indent=2) + "\n"


@st.composite
def edited_document(draw):
    """The writer's json document for a family at n <= 12, with one edit:
    a byte inserted, deleted or replaced, two sets swapped, a set repeated,
    two elements of a set swapped, one line re-indented, the final newline
    dropped, or another "n"."""
    f = draw(family_strategy(max_n=12, max_size=12))
    text = df.family_to_json(f)
    sets = [list(df.elements_of(w)) for w in f.members]
    edits = ["insert", "delete", "replace", "swap sets", "repeat set", "swap elements"]
    edit = draw(st.sampled_from(edits + ["indent", "final newline", "n"]))
    # one edit in three lands in the last eight bytes, around the tail
    anywhere = st.integers(min_value=0, max_value=len(text) - 1)
    at = draw(st.one_of(anywhere, anywhere, st.integers(len(text) - 8, len(text) - 1)))
    byte = draw(st.sampled_from('0123456789 \n,[]-"{}:xn'))
    pick = st.integers(min_value=0, max_value=max(len(sets) - 1, 0))
    i, j = draw(pick), draw(pick)
    if edit == "insert":
        return text[:at] + byte + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1 :]
    if edit == "replace":
        return text[:at] + byte + text[at + 1 :]
    if edit == "final newline":
        return text[:-1]
    if edit == "indent":
        lines = text.split("\n")
        k = at % len(lines)
        lines[k] = " " * draw(st.integers(min_value=0, max_value=8)) + lines[k].lstrip(" ")
        return "\n".join(lines)
    if edit == "n":
        other = ["0", "05", "-1", "3.0", "true", '"4"', "25", "24", "1", "13"]
        return text.replace(f'"n": {f.n},', f'"n": {draw(st.sampled_from(other))},', 1)
    if sets and edit == "swap sets":
        sets[i], sets[j] = sets[j], sets[i]
    elif sets and edit == "repeat set":
        sets.insert(j, sets[i])
    elif sets and len(sets[i]) > 1 and edit == "swap elements":
        e = draw(st.integers(min_value=1, max_value=len(sets[i]) - 1))
        sets[i][e - 1], sets[i][e] = sets[i][e], sets[i][e - 1]
    return writer_document(f.n, sets)


@st.composite
def edited_lines(draw):
    """The writer's lines text for a family at n <= 12 and that n, with one
    edit: a byte inserted, deleted or replaced, two lines swapped, a line
    repeated, two elements of a line swapped, a leading zero, a trailing
    space, one "\r\n" line end, or the final newline dropped."""
    f = draw(family_strategy(max_n=12, max_size=12))
    text = df.family_to_lines(f)
    lines = text.splitlines()
    edits = ["insert", "delete", "replace", "swap lines", "repeat line", "swap elements"]
    edit = draw(st.sampled_from(edits + ["leading zero", "trailing space", "crlf", "final newline"]))
    at = draw(st.integers(min_value=0, max_value=max(len(text) - 1, 0)))
    byte = draw(st.sampled_from("0123456789 \n-\r\t#x"))
    pick = st.integers(min_value=0, max_value=max(len(lines) - 1, 0))
    i, j = draw(pick), draw(pick)
    if edit == "insert":
        return text[:at] + byte + text[at:], f.n
    if edit == "delete":
        return text[:at] + text[at + 1 :], f.n
    if edit == "replace":
        return text[:at] + byte + text[at + 1 :], f.n
    if edit == "final newline":
        return text[:-1], f.n
    if lines and edit == "swap lines":
        lines[i], lines[j] = lines[j], lines[i]
    elif lines and edit == "repeat line":
        lines.insert(j, lines[i])
    elif lines and edit == "swap elements" and " " in lines[i]:
        elems = lines[i].split()
        e = draw(st.integers(min_value=1, max_value=len(elems) - 1))
        elems[e - 1], elems[e] = elems[e], elems[e - 1]
        lines[i] = " ".join(elems)
    elif lines and edit == "leading zero":
        elems = lines[i].split()
        e = draw(st.integers(min_value=0, max_value=len(elems) - 1))
        elems[e] = "0" + elems[e]
        lines[i] = " ".join(elems)
    elif lines and edit == "trailing space":
        lines[i] += " "
    elif lines and edit == "crlf":
        lines[i] += "\r"
    return "".join(line + "\n" for line in lines), f.n


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\n", "line 1: element 0 outside 1..24"),
            ("-3\n", "line 1: element -3 outside 1..24"),
            ("# c\n-\n\n-3 0\n-1\n", "line 4: element -3 outside 1..24"),
        ],
    )
    def test_inferred_ground_with_no_element_in_range_names_the_element(self, text, message):
        # no ground size was read from the file, so none is reported
        for source in (text, io.BytesIO(text.encode())):
            with pytest.raises(ValueError) as info:
                df.family_from_lines(source)
            assert str(info.value) == message
        with pytest.raises(ValueError, match="element .* outside 1..3"):
            df.family_from_lines(text, 3)


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


class TestRenderText:
    """The table renderer against its definition, for every style a caller
    passes: the words at the 12-bit seam, the top of the range, no word and
    one word, with any head and tail."""

    @pytest.mark.parametrize(
        "style",
        [serialization.LINES_STYLE, serialization.INLINE_JSON_STYLE, serialization._JSON_SET_STYLE],
    )
    @given(
        words=st.lists(
            st.one_of(st.sampled_from([0, 1, 4095, 4096, 4097]), st.integers(0, (1 << 24) - 1)),
            max_size=12,
        ),
        # a few separators, since each builds and caches its own tables
        between=st.sampled_from(["", "\n", ", ", ",\n    ", serialization._JSON_SEP, "]x"]),
        head=st.text(max_size=4),
        tail=st.text(max_size=4),
    )
    @example(words=[0, 1, 4095, 4096, 4097, 1 << 23, (1 << 24) - 1], between="\n", head="", tail="")
    @example(words=[], between="\n", head="<", tail=">")
    @example(words=[4096], between=", ", head="", tail="")
    def test_matches_naive_reference(self, style, words, between, head, tail):
        expected = oracle_render_text(words, style, between, head, tail)
        assert serialization.render_text(words, style, between, head, tail) == expected
        array = np.array(words, dtype=np.uint32)
        assert serialization.render_text(array, style, between, head, tail) == expected


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

    @pytest.mark.parametrize("n, sc", [(1, 0), (5, 3), (12, 7), (13, 4096), (16, 1), (24, None)])
    def test_canonical_files_skip_the_set_by_set_parse(self, monkeypatch, n, sc):
        if sc is None:  # members of elements 10..24: every two-digit element
            words = np.random.default_rng(24).integers(1, 1 << 15, size=500) << 9
            f = df.Family(n, words)
            assert f.members[-1] >> 23
        else:
            f = df.generate_family(df.Generator(n, sc))
        lines, doc = oracle_to_lines(f), oracle_to_json(f)

        def refuse(*args):
            raise AssertionError("set-by-set parse reached")

        monkeypatch.setattr("deltafree.serialization._family_of_sets", refuse)
        monkeypatch.setattr("deltafree.serialization.json.loads", refuse)
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

    @given(edited_document())
    def test_json_reader_matches_oracle_on_edited_writer_output(self, text):
        assert outcome(df.family_from_json, text) == outcome(oracle_from_json, text)

    @given(edited_lines())
    def test_lines_reader_matches_oracle_on_edited_writer_output(self, edit):
        text, n = edit
        assert outcome(df.family_from_lines, text) == outcome(oracle_from_lines, text)
        assert outcome(df.family_from_lines, text, n) == outcome(oracle_from_lines, text, n)

    @pytest.mark.parametrize(
        "text",
        [
            writer_document(24, [[24, 24]]),  # repeated elements summing past 2^23
            writer_document(24, [[1], [23, 23, 24]]),
            writer_document(3, [[1], [2]]).replace('"n": 3', '"n": 03'),
            writer_document(3, [[1], [2]])[:-1] + "x",
            writer_document(3, [[1], [2]]) + "]",
            writer_document(3, [[1], [1]]),
            writer_document(3, [[], []]),
            writer_document(3, [[]]),
            writer_document(3, []),
            writer_document(2, [[3]]),
            writer_document(25, [[1]]),
        ],
    )
    def test_json_layout_fallback_table(self, text):
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


def decoded(data: bytes) -> str:
    """``data`` as ``Path.read_text`` decodes a file: UTF-8, universal newlines."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def prefixes(n, sc):
    """The families of the first k members of a maximum family, every k."""
    members = df.generate_family(df.Generator(n, sc)).members
    return [df.Family(n, members[:k]) for k in range(len(members) + 1)]


class TestStreams:
    """The readers take a binary stream as well as a str.  With blocks of
    1, 7 and 64 bytes, files of every length up to a few hundred bytes put
    each separator, the json tail and the final newline across two reads,
    and make files that end exactly where a block does."""

    @pytest.fixture(params=[1, 7, 64], autouse=True)
    def tiny_blocks(self, request, monkeypatch):
        monkeypatch.setattr(serialization, "_BLOCK_CHARS", request.param)

    @pytest.fixture
    def set_by_set(self, monkeypatch):
        """The valid texts that reach the set-by-set parse, one entry each."""
        calls = []
        family_of_sets = serialization._family_of_sets

        def counted(n, sets):
            calls.append(sets)
            return family_of_sets(n, sets)

        monkeypatch.setattr(serialization, "_family_of_sets", counted)
        return calls

    def read_both(self, read, data, *args):
        """``read`` of ``data`` as a stream and of its text, with the
        oracle's outcome, which both must equal."""
        text = decoded(data)
        oracle = oracle_from_json if read is df.family_from_json else oracle_from_lines
        expected = outcome(oracle, text, *args)
        stream = io.BytesIO(b"x" + data)
        stream.seek(1)  # read from where the stream stands
        assert outcome(read, stream, *args) == expected
        assert outcome(read, text, *args) == expected
        return expected

    @pytest.mark.parametrize("n, sc", [(4, 0), (5, 3)])
    def test_writer_lines_with_each_ending(self, set_by_set, n, sc):
        for f in prefixes(n, sc)[1:]:
            text = df.family_to_lines(f).encode()
            for data in (text, text[:-1]):
                self.read_both(df.family_from_lines, data)
                assert self.read_both(df.family_from_lines, data, n) == f
            assert not set_by_set
            self.read_both(df.family_from_lines, text + b"\n")  # doubled: a blank line
            assert len(set_by_set) == 2
            set_by_set.clear()

    @pytest.mark.parametrize("n, sc", [(4, 0), (5, 3)])
    def test_writer_json(self, set_by_set, n, sc):
        for f in prefixes(n, sc)[1:]:
            assert self.read_both(df.family_from_json, df.family_to_json(f).encode()) == f
        assert not set_by_set

    @pytest.mark.parametrize(
        "data",
        [b"", b"-", b"-\n", b"\n", b"1\n\n2\n", b"1 2\r\n3\r\n", b"1 2\r3\n", b"# c\n1\n", b"2\n1\n"],
    )
    def test_lines_that_are_not_the_writers(self, data):
        self.read_both(df.family_from_lines, data)
        self.read_both(df.family_from_lines, data, 3)

    def test_lines_that_take_the_fallback(self, set_by_set):
        for data in [b"", b"\n", b"1\n\n2\n", b"1 2\r\n3\r\n", b"# c\n1\n"]:
            assert df.family_from_lines(io.BytesIO(data)) == oracle_from_lines(decoded(data))
        assert len(set_by_set) == 5
        assert df.family_from_lines(io.BytesIO(b"-")) == df.Family(1, [0])
        assert len(set_by_set) == 5

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc[:-1],  # no final newline
            lambda doc: doc + "\n",
            lambda doc: doc.replace("\n", "\r\n"),
            lambda doc: doc.replace("],\n    [", "],\n\n    [", 1),  # a blank line
            lambda doc: doc.replace("    ]\n  ]", "    ],\n    []\n  ]"),  # the empty set last
            lambda doc: " " + doc,
        ],
    )
    def test_json_that_is_not_the_writers(self, edit):
        for f in prefixes(3, 1):
            self.read_both(df.family_from_json, edit(df.family_to_json(f)).encode())

    def test_json_that_takes_the_fallback(self, set_by_set):
        doc = df.family_to_json(df.generate_family(df.Generator(3, 1)))
        for text in [doc.replace("\n", "\r\n"), doc + "\n", writer_document(3, [])]:
            data = text.encode()
            assert df.family_from_json(io.BytesIO(data)) == oracle_from_json(decoded(data))
        assert len(set_by_set) == 3

    def test_empty_set_last_in_json(self, set_by_set):
        # the empty set prints as nothing between its brackets: a last block
        # of no bytes is a set
        f = df.Family(3, [0, 1])
        doc = writer_document(3, [[1], []])
        assert self.read_both(df.family_from_json, doc.encode()) == f
        assert not set_by_set


@pytest.fixture(scope="module")
def family_n18():
    return df.generate_family(df.Generator(18, 0b10_0110_0000_0001_0011))


class TestBlocks:
    """Files of many blocks: the n = 18 maximum family is 2.9 MB as lines
    and 12.8 MB as json."""

    def test_bad_line_in_last_block_reports_global_line_number(self, family_n18):
        lines = df.family_to_lines(family_n18).splitlines()
        lines[-1] = " ".join(reversed(lines[-1].split()))
        text = "\n".join(lines) + "\n"
        expected = f"line {len(lines)}: elements must be strictly increasing"
        with pytest.raises(ValueError, match=expected):
            df.family_from_lines(text)

    def test_bad_set_in_last_block_reports_the_set(self, family_n18):
        sets = [list(df.elements_of(w)) for w in family_n18.members]
        sets[-1].reverse()
        text = writer_document(18, sets)
        expected = f"set {sets[-1]} is not strictly increasing"
        with pytest.raises(ValueError, match=re.escape(expected)):
            df.family_from_json(text)

    def test_set_repeated_across_blocks_is_deduplicated(self, family_n18, monkeypatch):
        lines = df.family_to_lines(family_n18)
        assert len(lines) > 4 * serialization._BLOCK_CHARS
        lines += lines[: lines.index("\n") + 1]
        sets = [list(df.elements_of(w)) for w in family_n18.members]
        sets.append(sets[0])
        doc = writer_document(18, sets)

        def refuse(*args):
            raise AssertionError("set-by-set parse reached")

        monkeypatch.setattr("deltafree.serialization._family_of_sets", refuse)
        monkeypatch.setattr("deltafree.serialization.json.loads", refuse)
        assert df.family_from_lines(lines) == family_n18
        assert df.family_from_json(doc) == family_n18

    @pytest.mark.parametrize(
        "write, read",
        [(df.family_to_lines, df.family_from_lines), (df.family_to_json, df.family_from_json)],
    )
    def test_reader_memory_is_bounded(self, family_n18, write, read):
        text = write(family_n18)
        tracemalloc.start()
        try:
            assert read(text) == family_n18
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize(
        "write, read",
        [(df.family_to_lines, df.family_from_lines), (df.family_to_json, df.family_from_json)],
    )
    def test_file_reads_hold_no_whole_text(self, family_n18, tmp_path, write, read):
        # a copy of the text alone would pass the bound: 2.8 MiB as lines
        # beside the 2.8 MiB str, 12.2 MiB as json
        text = write(family_n18)
        path = tmp_path / "family"
        path.write_text(text)
        for load in (lambda: cli._load_family(str(path), None), lambda: read(text)):
            tracemalloc.start()
            try:
                assert load() == family_n18
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 << 20

    def test_writer_memory_is_bounded(self, family_n18):
        tracemalloc.start()
        try:
            text = df.family_to_json(family_n18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rendering's pieces, 16 bytes a set, and the tables if not yet cached
        assert peak - sys.getsizeof(text) < 6 << 20


class TestGenerateInSlices:
    """``generate`` writes a slice of words at a time: the bytes of the
    whole-text writers, which lay JSON out as ``json.dumps(..., indent=2)``."""

    @pytest.mark.parametrize("fmt", ["lines", "json"])
    def test_n19_in_two_slices(self, capsys, fmt):
        family = df.generate_family(df.Generator(19, df.word_of([1, 3], 19)))
        assert len(family) == 2 * serialization._EMIT_SLICE
        assert cli.main(["generate", "--n", "19", "--sc", "1,3", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "lines":
            assert out == df.family_to_lines(family) == oracle_to_lines(family)
        else:
            assert out == df.family_to_json(family) == oracle_to_json(family)

    @pytest.mark.parametrize("fmt", ["lines", "json"])
    @pytest.mark.parametrize("slice_words", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_slices(self, capsys, monkeypatch, fmt, slice_words, n):
        # 1, 2, 4, 8 and 16 words: one short slice, exactly one or more
        # whole slices (by 4), and whole slices then a short one (by 3)
        monkeypatch.setattr(serialization, "_EMIT_SLICE", slice_words)
        family = df.generate_family(df.Generator(n, 0))
        assert cli.main(["generate", "--n", str(n), "--format", fmt]) == 0
        expected = oracle_to_lines(family) if fmt == "lines" else oracle_to_json(family)
        assert capsys.readouterr().out == expected


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
