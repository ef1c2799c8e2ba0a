"""Reading and writing families deterministically.

Two formats.  ``lines``: one set per line, 1-based elements ascending,
space-separated, with the bare token ``-`` standing for the empty set;
no header, so the ground size is either supplied by the caller or
inferred as the largest element present.  ``json``: a document
``{"format": ..., "n": ..., "sets": [[...], ...]}`` that round-trips the
ground size exactly.  Sets are always emitted in canonical family order
(ascending word value).

Writers render each word from two precomputed tables, one for its low 12
bits (elements 1..12) and one for bits 12..23 (elements 13..24).  Readers
convert a whole file in bulk; any input the bulk pass does not accept
(comments, blank lines, unusual spacing, or anything invalid) is parsed
again set by set, which yields the result or the error message.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Iterable

import numpy as np

from .core import MAX_GROUND, Family, elements_of, validate_ground, word_of

FORMAT_TAG = "delta-family/1"
EMPTY_SET_TOKEN = "-"

# How one set prints: (between elements, before them, after them, the empty set).
LINES_STYLE = (" ", "", "", EMPTY_SET_TOKEN)
INLINE_JSON_STYLE = (", ", "[", "]", "[]")
_DOCUMENT_STYLE = (",\n      ", "[\n      ", "\n    ]", "[]")

_HALF_BITS = 12
_HALF_MASK = (1 << _HALF_BITS) - 1


def _half_elements(sep: str, offset: int) -> list[str]:
    """Entry h: the elements offset + 1 .. offset + 12 of 12-bit word h,
    ascending, joined by ``sep``; "" for h = 0."""
    table = [""]
    for bit in range(_HALF_BITS):
        e = str(offset + bit + 1)
        table += [f"{t}{sep}{e}" if t else e for t in table]
    return table


@functools.cache
def _style_tables(style: tuple[str, str, str, str]) -> tuple[list[str], list[str], list[str]]:
    """Whole renderings of words below 2^12, and the low-half heads and
    high-half tails that concatenate to the rendering of a larger word."""
    sep, opening, closing, empty = style
    low = _half_elements(sep, 0)
    whole = [f"{opening}{t}{closing}" if t else empty for t in low]
    heads = [f"{opening}{t}{sep}" if t else opening for t in low]
    tails = [f"{t}{closing}" for t in _half_elements(sep, _HALF_BITS)]
    return whole, heads, tails


def render_sets(words: Iterable[int], style: tuple[str, str, str, str]) -> list[str]:
    """One string per word (each below 2^24), printed in ``style``."""
    whole, heads, tails = _style_tables(style)
    return [
        whole[w] if w <= _HALF_MASK else heads[w & _HALF_MASK] + tails[w >> _HALF_BITS]
        for w in words
    ]


def family_to_lines(family: Family) -> str:
    """Lines format; empty family serializes to the empty string."""
    out = render_sets(family._arr.tolist(), LINES_STYLE)
    return "\n".join(out) + ("\n" if out else "")


def family_to_json(family: Family) -> str:
    """The json document, laid out as ``json.dumps(..., indent=2)`` does."""
    sets = render_sets(family._arr.tolist(), _DOCUMENT_STYLE)
    body = "\n    " + ",\n    ".join(sets) + "\n  " if sets else ""
    return f'{{\n  "format": {json.dumps(FORMAT_TAG)},\n  "n": {family.n},\n  "sets": [{body}]\n}}\n'


def _words_of_elements(values: np.ndarray, owner: np.ndarray, count: int) -> np.ndarray | None:
    """The word of each of ``count`` sets from all their elements in order,
    ``owner`` naming the set of each; None unless every element lies in
    1..MAX_GROUND and each set's elements strictly increase."""
    if values.size and (values.min() < 1 or values.max() > MAX_GROUND):
        return None
    if ((owner[1:] == owner[:-1]) & (values[1:] <= values[:-1])).any():
        return None
    # A set's bits are distinct, so their sum is their union; each sum is
    # below 2^24, so float64 holds it exactly.
    bits = np.left_shift(1, values.astype(np.int64) - 1)
    return np.bincount(owner, weights=bits, minlength=count).astype(np.int64)


def _bulk_lines(text: str) -> np.ndarray | None:
    """The words of a lines file whose every line is ``-`` or 1- and
    2-digit elements split by single spaces; None for any other text."""
    if not text.isascii():
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    newline = buf == ord("\n")
    ends = np.flatnonzero(newline)
    if buf.size and not newline[-1]:
        ends = np.append(ends, buf.size)
    starts = np.concatenate(([0], ends + 1))[:-1]
    if (ends == starts).any():
        return None  # a blank line
    digits = buf - np.uint8(ord("0"))
    digit = digits < 10
    space = buf == ord(" ")
    dash = buf == ord("-")
    if not (digit | space | newline | dash).all():
        return None
    if dash.sum() != (dash[starts] & (ends - starts == 1)).sum():
        return None  # a dash that is not a whole line
    before = np.insert(digit[:-1], 0, False)
    after = np.append(digit[1:], False)
    if (space & ~(before & after)).any():
        return None  # a space not between two digits
    first = np.flatnonzero(digit & ~before)
    last = np.flatnonzero(digit & ~after)
    if (last - first > 1).any():
        return None  # three or more digits
    values = digits[last] + digits[first] * (last > first) * np.uint8(10)
    line = np.cumsum(newline, dtype=np.int32)
    return _words_of_elements(values, line[first], ends.size)


def family_from_lines(text: str, n: int | None = None) -> Family:
    """Parse lines format; ``n`` defaults to the largest element present."""
    words = _bulk_lines(text)
    if words is not None:
        ground = n if n is not None else max(1, int(words.max(initial=0)).bit_length())
        try:
            return Family(ground, words)
        except ValueError:
            pass  # a bad ground size or an element above it: reported below
    return _parse_lines(text, n)


def _parse_lines(text: str, n: int | None) -> Family:
    """Set-by-set parse of the lines format, with its error messages."""
    sets: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == EMPTY_SET_TOKEN:
            sets.append(())
            continue
        try:
            elems = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError(f"line {lineno}: elements must be strictly increasing")
        sets.append(elems)
    if n is None:
        n = max((elems[-1] for elems in sets if elems), default=1)
    return _family_of_sets(n, sets)


def _family_of_sets(n: int, sets: list[tuple[int, ...]]) -> Family:
    validate_ground(n)
    words = []
    for elems in sets:
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError(f"set {list(elems)} is not strictly increasing")
        words.append(word_of(elems, n))
    return Family(n, words)


def _bulk_sets(sets: list) -> np.ndarray | None:
    """The words of a json ``sets`` list in one flat pass; None unless every
    set is a list of ints that strictly increase within 1..MAX_GROUND."""
    if not set(map(type, sets)) <= {list}:
        return None
    flat = list(itertools.chain.from_iterable(sets))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        values = np.array(flat, dtype=np.int64)
    except OverflowError:
        return None
    owner = np.repeat(np.arange(len(sets)), list(map(len, sets)))
    return _words_of_elements(values, owner, len(sets))


def family_from_json(text: str) -> Family:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("family document must be a JSON object")
    tag = payload.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported format tag {tag!r}")
    if "n" not in payload or "sets" not in payload:
        raise ValueError('family document needs "n" and "sets"')
    n = payload["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be an integer')
    sets_raw = payload["sets"]
    if not isinstance(sets_raw, list):
        raise ValueError('"sets" must be a list of lists')
    words = _bulk_sets(sets_raw)
    if words is not None:
        try:
            return Family(n, words)
        except ValueError:
            pass  # a bad ground size or an element above it: reported below
    sets = []
    for entry in sets_raw:
        if not isinstance(entry, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) for e in entry
        ):
            raise ValueError(f"set {entry!r} must be a list of integers")
        sets.append(tuple(entry))
    return _family_of_sets(n, sets)


def parse_element_set(text: str, n: int) -> int:
    """Parse a CLI element list like ``3,4,5`` or ``3 4 5``; empty means ∅."""
    validate_ground(n)
    cleaned = text.replace(",", " ").strip()
    if not cleaned or cleaned == EMPTY_SET_TOKEN:
        return 0
    try:
        elems = [int(tok) for tok in cleaned.split()]
    except ValueError:
        raise ValueError(f"cannot parse element set {text!r}") from None
    return word_of(sorted(set(elems)), n)


def format_element_set(word: int) -> str:
    """Brace rendering used in reports, e.g. ``{3,4}``; ∅ is ``{}``."""
    return "{" + ",".join(map(str, elements_of(word))) + "}"
