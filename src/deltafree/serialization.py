"""Reading and writing families deterministically.

Two formats.  ``lines``: one set per line, 1-based elements ascending,
space-separated, with the bare token ``-`` standing for the empty set;
no header, so the ground size is either supplied by the caller or
inferred as the largest element present.  ``json``: a document
``{"format": ..., "n": ..., "sets": [[...], ...]}`` that round-trips the
ground size exactly.  Sets are always emitted in canonical family order
(ascending word value).

Writers print each word as two entries of precomputed tables, one for its
low 12 bits and one for the rest, gathered by numpy into one join, so no
string is made per word and the text is copied once; a head and a tail let
a caller print a family slice by slice.  Readers work in blocks: they cut
the text at set boundaries into blocks of about 2^18 characters, tokenize
each with numpy and join the words into one family, so their memory beyond
the text and the words is one block's worth.  A lines block must hold only
``-`` or plain ascending elements split by single spaces.  The json fast
path takes only the writer's exact layout: its header, then each block
accepted only if rendering its words gives the block back byte for byte,
so it reads what ``json.loads`` would.  Any other input (comments, blank
lines, other spacing or layout, or anything invalid) is parsed set by set,
with the same results and error messages.
"""

from __future__ import annotations

import functools
import json
import re
from typing import Callable

import numpy as np

from .core import MAX_GROUND, Family, elements_of, validate_ground, word_of

FORMAT_TAG = "delta-family/1"
EMPTY_SET_TOKEN = "-"

# How one set prints: (between elements, before them, after them, the empty set).
_Style = tuple[str, str, str, str]
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


@functools.cache
def _render_tables(style: _Style, between: str) -> tuple[np.ndarray, np.ndarray]:
    """``heads[low]``: the opening and the elements of a word's low 12 bits,
    "" for 0.  ``rests[2 * high + (low != 0)]``: the rest of the word, from
    the separator or opening its high elements need to its closing, then
    ``between``; entry 0 is the empty set's."""
    sep, opening, closing, empty = style
    low, high = [""], [""]  # entry h: the elements of 12-bit word h joined by sep
    for bit in range(1, _HALF_BITS + 1):
        low += [f"{t}{sep}{bit}" if t else str(bit) for t in low]
        high += [f"{t}{sep}{bit + _HALF_BITS}" if t else str(bit + _HALF_BITS) for t in high]
    rests = [empty, closing] + [f"{o}{t}{closing}" for t in high[1:] for o in (opening, sep)]
    heads = [opening + t if t else "" for t in low]
    return np.array(heads, dtype=object), np.array(rests, dtype=object) + between


def render_text(words, style: _Style, between: str, head: str = "", tail: str = "") -> str:
    """``head``, then ``words`` (each below 2^24) in ``style`` with ``between``
    after all but the last, then ``tail``: two table entries a word, gathered
    by numpy, so one join builds the text and no string is made per word."""
    words = np.asarray(words)
    if not words.size:
        return head + tail
    heads, rests = _render_tables(style, between)
    low = words & _HALF_MASK
    pieces = np.empty(2 * words.size + 2, dtype=object)
    pieces[0], pieces[-1] = head, tail
    pieces[1:-1:2] = heads.take(low)
    pieces[2:-1:2] = rests.take(words >> _HALF_BITS << 1 | low.astype(bool))
    pieces[-2] = pieces[-2].removesuffix(between)  # none after the last word
    pieces = pieces.tolist()  # frees the array before the join
    return "".join(pieces)


def _framing(family: Family, fmt: str) -> tuple[_Style, str, str, str]:
    """The style, ``between``, head and tail with which ``render_text``
    prints ``family``'s words as a ``fmt`` ("lines" or "json") file."""
    if fmt == "lines":
        return LINES_STYLE, "\n", "", "\n" if family._arr.size else ""
    head = f"{_HEAD_TO_N}{family.n}{_HEAD_AFTER_N}"
    if not family._arr.size:
        return _JSON_SET_STYLE, _JSON_SEP, head, _JSON_TAIL
    return _JSON_SET_STYLE, _JSON_SEP, head + _SETS_OPEN, _SETS_CLOSE + _JSON_TAIL


def family_to_lines(family: Family) -> str:
    """Lines format; empty family serializes to the empty string."""
    return render_text(family._arr, *_framing(family, "lines"))


def family_to_json(family: Family) -> str:
    """The json document, laid out as ``json.dumps(..., indent=2)`` does."""
    return render_text(family._arr, *_framing(family, "json"))


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


def _bits_between(first: np.ndarray, values: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Per two adjacent ``breaks``, the sum of the bits of the elements
    ``values`` that start between them (at offsets ``first``): a set's word
    if its elements are distinct.  Prefix sums wrap modulo 2^32: still exact."""
    sums = np.zeros(first.size + 1, dtype=np.uint32)
    np.cumsum(_ELEMENT_BITS[values], out=sums[1:])
    ends = sums[np.searchsorted(first, breaks)]
    return ends[1:] - ends[:-1]


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
    # two adjacent elements share a line iff a space follows the first
    if (space[last[:-1] + 1] & (values[1:] <= values[:-1])).any():
        return None  # elements not strictly increasing
    return _bits_between(first, values, breaks)


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
    words = _bits_between(first, values, np.flatnonzero(buf == ord("]")))
    if words.max() >> MAX_GROUND:
        return None  # repeated elements; render_text takes words below 2^24
    if render_text(words, _JSON_SET_STYLE, _JSON_SEP) != block:
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
