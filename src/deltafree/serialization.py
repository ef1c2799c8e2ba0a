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
a caller print a family slice by slice.  Readers invert the writers, by
one rule for both formats: they cut the text at set boundaries into blocks
of about 2^18 characters, read each block's words with numpy, and accept
the block only if ``render_text`` gives it back byte for byte; a json
document must also have the writer's head and tail.  So the fast path takes
each set exactly as the writer prints it, the sets in any order, and its
memory beyond the text and the words is one block's worth.  Any other input
(comments, blank lines, other spacing or layout, or anything invalid) is
parsed set by set, with the same results and error messages.
"""

from __future__ import annotations

import functools
import json
import re

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


@functools.cache
def _pair_bits() -> np.ndarray:
    """Entry ``a << 8 | b``: the bit of the element that a run of digits
    spells when its first two bytes are ``a`` and ``b``; 0 where that is no
    element of 1..MAX_GROUND.  Rows stop at ``a = "9"``, as ``a`` is a digit."""
    table = np.zeros((ord("9") + 1, 256), dtype=np.uint32)
    byte = np.arange(256)
    ends_run = (byte < ord("0")) | (byte > ord("9"))
    for element in range(1, MAX_GROUND + 1):
        first, *second = str(element).encode("ascii")
        table[first, second or ends_run] = 1 << element - 1
    return table.ravel()


def _read_words(text: str, start: int, stop: int, style: _Style, between: str) -> np.ndarray | None:
    """The words of text[start:stop] if ``render_text(words, style, between)``
    prints it exactly; None for any other text.

    The text is cut at ``between`` into blocks of about _BLOCK_CHARS.  In a
    block, each run of digits reads as the element its first two digits
    spell, in the set between the ``between[0]`` bytes around it; that byte
    occurs once in ``between`` and in no rendered set.  Text that this
    misreads renders differently, so the render check alone decides what is
    accepted.
    """
    pad = between[0]
    blocks = []
    while True:
        cut = text.find(between, start + _BLOCK_CHARS, stop)
        block = text[start : cut if cut >= 0 else stop]
        # one byte a character: a non-ASCII one reads as "?" and fails the check
        buf = np.frombuffer(f"{pad}{block}{pad}".encode("ascii", "replace"), dtype=np.uint8)
        is_digit = buf - np.uint8(ord("0")) < 10
        before = np.flatnonzero(is_digit[1:] > is_digit[:-1])  # the byte before each run
        pair = np.left_shift(buf[1:][before], 8, dtype=np.uint16)
        pair |= buf[2:][before]
        sums = np.zeros(before.size + 1, dtype=np.uint32)  # wraps modulo 2^32: still exact
        np.cumsum(_pair_bits().take(pair), out=sums[1:])
        # the runs before a pad byte are those whose byte before lies before it
        words = np.diff(sums[np.searchsorted(before, np.flatnonzero(buf == ord(pad)))])
        # repeated elements can sum past 2^24, which render_text refuses
        if words.max() >> MAX_GROUND or render_text(words, style, between) != block:
            return None
        blocks.append(words)
        if cut < 0:
            return np.concatenate(blocks)
        start = cut + len(between)


def family_from_lines(text: str, n: int | None = None) -> Family:
    """Parse lines format; ``n`` defaults to the largest element present.
    The fast path takes lines that each print a set as the writer does, in
    any order, with or without the final newline."""
    words = _read_words(text, 0, len(text) - text.endswith("\n"), LINES_STYLE, "\n")
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


def _layout_json(text: str) -> Family | None:
    """The family of a document in the writer's exact layout; None for
    any other text, or for a ground size or element the family refuses."""
    head = _HEAD_PATTERN.match(text)
    if head is None or not text.endswith(_JSON_TAIL):
        return None
    start, stop = head.end(), len(text) - len(_JSON_TAIL)
    words = np.zeros(0, dtype=np.uint32) if start == stop else None
    if text.startswith(_SETS_OPEN, start, stop) and text.endswith(_SETS_CLOSE, start, stop):
        # no byte of _SETS_OPEN is "]", so the two do not overlap
        start, stop = start + len(_SETS_OPEN), stop - len(_SETS_CLOSE)
        words = _read_words(text, start, stop, _JSON_SET_STYLE, _JSON_SEP)
    if words is None:
        return None
    try:
        return Family(int(head.group(1)), words)
    except ValueError:
        return None  # a bad ground size or an element above it: reported below


def family_from_json(text: str) -> Family:
    """Parse a json document.  The fast path takes the writer's head and
    tail and, between them, sets printed as the writer does, in any order."""
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
