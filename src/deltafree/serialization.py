"""Reading and writing families deterministically.

Two formats.  ``lines``: one set per line, 1-based elements ascending,
space-separated, with the bare token ``-`` standing for the empty set;
no header, so the ground size is either supplied by the caller or
inferred as the largest element present.  ``json``: a document
``{"format": ..., "n": ..., "sets": [[...], ...]}`` that round-trips the
ground size exactly.  Sets are always emitted in canonical family order
(ascending word value).

Writers render each word from two precomputed tables, one for its low 12
bits (elements 1..12) and one for bits 12..23 (elements 13..24), and build
the text by one join, so it is copied once.  Readers
work in blocks: they cut the text at set boundaries into blocks of about
2^18 characters, tokenize each with numpy and join the words into one
family, so their memory beyond the text and the words is one block's
worth.  A lines block must hold only ``-`` or plain ascending elements
split by single spaces.  The json fast path takes only the writer's exact
layout: its header, then each block accepted only if rendering its words
gives the block back byte for byte, so it reads what ``json.loads`` would.
Any other input (comments, blank lines, other spacing or layout, or
anything invalid) is parsed set by set, with the same results and error
messages.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Callable, Iterable

import numpy as np

from .core import MAX_GROUND, Family, elements_of, validate_ground, word_of

FORMAT_TAG = "delta-family/1"
EMPTY_SET_TOKEN = "-"

# How one set prints: (between elements, before them, after them, the empty set).
LINES_STYLE = (" ", "", "", EMPTY_SET_TOKEN)
INLINE_JSON_STYLE = (", ", "[", "]", "[]")
# Inside its brackets in the json document; the writer adds the brackets.
_JSON_SET_STYLE = (",\n      ", "\n      ", "\n    ", "")

# The writer's json layout: the head up to and after the ground size, then
# either nothing or _SETS_OPEN, the sets inside their brackets joined by
# _JSON_SEP, and _SETS_CLOSE; then the tail.
_HEAD_TO_N = '{\n  "format": ' + json.dumps(FORMAT_TAG) + ',\n  "n": '
_HEAD_AFTER_N = ',\n  "sets": ['
_HEAD_PATTERN = re.compile(re.escape(_HEAD_TO_N) + "([1-9][0-9]*)" + re.escape(_HEAD_AFTER_N))
_JSON_TAIL = "]\n}\n"
_SETS_OPEN, _JSON_SEP, _SETS_CLOSE = "\n    [", "],\n    [", "]\n  "

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
    out.append("")  # the final newline, without a second copy of the text
    return "\n".join(out)


def family_to_json(family: Family) -> str:
    """The json document, laid out as ``json.dumps(..., indent=2)`` does."""
    head = f"{_HEAD_TO_N}{family.n}{_HEAD_AFTER_N}"
    sets = render_sets(family._arr.tolist(), _JSON_SET_STYLE)
    if not sets:
        return head + _JSON_TAIL
    # head and tail go into the end sets, so the document is built by one join
    sets[0] = head + _SETS_OPEN + sets[0]
    sets[-1] += _SETS_CLOSE + _JSON_TAIL
    return _JSON_SEP.join(sets)


# Readers cut files into blocks of whole sets of about this many characters,
# so that their temporaries stay bounded however large the file.
_BLOCK_CHARS = 1 << 18

# Entry v: the bit of element v, or 0 where v is no element (v < 100).
_ELEMENT_BITS = np.zeros(100, dtype=np.uint32)
_ELEMENT_BITS[1 : MAX_GROUND + 1] = 1 << np.arange(MAX_GROUND)


def _read_blocks(
    text: str, start: int, stop: int, sep: str, parse: Callable[[str], np.ndarray | None]
) -> np.ndarray | None:
    """The words of the sets in text[start:stop], which ``sep`` separates:
    ``parse`` reads each block of whole sets; None once it refuses one."""
    blocks = []
    while True:
        cut = text.find(sep, start + _BLOCK_CHARS, stop)
        if cut < 0:
            cut = stop
        words = parse(text[start:cut])
        if words is None:
            return None
        blocks.append(words)
        if cut == stop:
            return np.concatenate(blocks)
        start = cut + len(sep)


def _lines_block(text: str) -> np.ndarray | None:
    """The words of lines that are each ``-`` or 1- and 2-digit elements,
    strictly increasing and split by single spaces; None for any other text."""
    if not text.isascii():
        return None
    # Padded so that each line lies between two newlines.
    buf = np.frombuffer(f"\n{text}\n".encode("ascii"), dtype=np.uint8)
    newline = buf == ord("\n")
    breaks = np.flatnonzero(newline)
    width = np.diff(breaks)
    if (width == 1).any():
        return None  # a blank line
    digits = buf - np.uint8(ord("0"))
    digit = digits < 10
    space = buf == ord(" ")
    dash = buf == ord("-")
    if not (digit | space | newline | dash).all():
        return None
    if dash.sum() != (dash[breaks[:-1] + 1] & (width == 2)).sum():
        return None  # a dash that is not a whole line
    if (space[1:-1] & ~(digit[:-2] & digit[2:])).any():
        return None  # a space not between two digits
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    first, last = edges[::2] + 1, edges[1::2]
    if (last - first > 1).any():
        return None  # three or more digits
    values = digits[last] + digits[first] * (last > first) * np.uint8(10)
    if values.size and (values.min() < 1 or values.max() > MAX_GROUND):
        return None
    line = np.cumsum(newline, dtype=np.int32)[first] - 1
    if ((line[1:] == line[:-1]) & (values[1:] <= values[:-1])).any():
        return None  # elements not strictly increasing
    # A set's bits are distinct, so their sum is their union; each sum is
    # below 2^24, so float64 holds it exactly.
    bits = _ELEMENT_BITS[values]
    return np.bincount(line, weights=bits, minlength=width.size).astype(np.uint32)


def family_from_lines(text: str, n: int | None = None) -> Family:
    """Parse lines format; ``n`` defaults to the largest element present."""
    words = _read_blocks(text, 0, len(text) - text.endswith("\n"), "\n", _lines_block)
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


def _json_block(block: str) -> np.ndarray | None:
    """The words of sets joined by _JSON_SEP, or None unless rendering them
    gives the block back byte for byte.

    Each run of digits reads as the element its first two digits spell, in
    the set between the "]" bytes around it.  Text that this misreads is
    text the writer cannot print, and it renders differently, so the check
    alone decides what is accepted.
    """
    if not block.isascii():
        return None
    # Padded so that each set, and each run of digits, has a "]" or another
    # non-digit byte on both sides.
    buf = np.frombuffer(f"]{block}]".encode("ascii"), dtype=np.uint8)
    digits = buf - np.uint8(ord("0"))
    is_digit = digits < 10
    first = np.flatnonzero(is_digit[1:] != is_digit[:-1])[::2] + 1
    tens, units = digits[first], digits[first + 1]
    values = np.where(units < 10, tens * np.uint8(10) + units, tens)
    # Prefix sums of the element bits wrap modulo 2^32, which leaves every
    # word below 2^32 exact.
    sums = np.zeros(first.size + 1, dtype=np.uint32)
    np.cumsum(_ELEMENT_BITS[values], out=sums[1:])
    ends = sums[np.searchsorted(first, np.flatnonzero(buf == ord("]")))]
    words = ends[1:] - ends[:-1]
    if words.max() >> MAX_GROUND:
        return None  # repeated elements; render_sets takes words below 2^24
    if _JSON_SEP.join(render_sets(words.tolist(), _JSON_SET_STYLE)) != block:
        return None
    return words


def _layout_json(text: str) -> Family | None:
    """The family of a document in the writer's exact layout; None for
    any other text, or for a ground size or element the family refuses."""
    head = _HEAD_PATTERN.match(text)
    if head is None or not text.endswith(_JSON_TAIL):
        return None
    start, stop = head.end(), len(text) - len(_JSON_TAIL)
    if start == stop:
        words = np.zeros(0, dtype=np.uint32)
    elif text.startswith(_SETS_OPEN, start, stop) and text.endswith(_SETS_CLOSE, start, stop):
        # no byte of _SETS_OPEN is "]", so the two do not overlap
        start, stop = start + len(_SETS_OPEN), stop - len(_SETS_CLOSE)
        words = _read_blocks(text, start, stop, _JSON_SEP, _json_block)
    else:
        return None
    if words is None:
        return None
    try:
        return Family(int(head.group(1)), words)
    except ValueError:
        return None  # a bad ground size or an element above it: reported below


def family_from_json(text: str) -> Family:
    family = _layout_json(text)
    if family is not None:
        return family
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
