"""Reading and writing families deterministically.

Two formats.  ``lines``: one set per line, 1-based elements ascending,
space-separated, with the bare token ``-`` standing for the empty set;
no header, so the ground size is either supplied by the caller or
inferred as the largest element present.  ``json``: a document
``{"format": ..., "n": ..., "sets": [[...], ...]}`` that round-trips the
ground size exactly.  Sets are always emitted in canonical family order
(ascending word value).

Everything about the file format lives here: ``write_family`` and
``read_family`` are what the CLI calls to write and read files.

Writers print each word as two entries of precomputed tables, one for its
low 12 bits and one for the rest, gathered by numpy into one join, so no
string is made per word and the text is copied once; ``write_family``
passes a family's text on a slice of words at a time.  Readers invert the
writers, by one rule for both formats, and take a seekable binary stream as
well as a str.  They read the bytes in blocks of about 2^17 into one buffer
per read, each block cut after its last set and read after the partial set
the last one left; they read each block's words with numpy and accept the
block only if ``render_text`` gives it back byte for byte; a json document
must also have the writer's head and tail.  So the fast path takes each set
exactly as the writer prints it, the sets in any order, and its memory
beyond the words is a few times the block; a str is never copied whole.
Any other input (comments, blank lines, other spacing or layout, CR LF line
ends, an empty json family, or anything invalid) is decoded whole, as
``Path.read_text`` would decode the file, and parsed set by set, with the
same results and error messages.  ``read_family`` sends a file that cannot
start as a writer's does straight to that parse.
"""

from __future__ import annotations

import functools
import io
import json
import re
from typing import BinaryIO, Callable

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
_JSON_TAIL = "]\n}\n"
_SETS_OPEN, _JSON_SEP, _SETS_CLOSE = "\n    [", "],\n    [", "]\n  "
# What the fast reader takes around the sets of a family with at least one.
_HEAD_PATTERN = re.compile(
    re.escape(_HEAD_TO_N.encode()) + rb"([1-9][0-9]*)" + re.escape((_HEAD_AFTER_N + _SETS_OPEN).encode())
)
_JSON_END = (_SETS_CLOSE + _JSON_TAIL).encode()

_HALF_BITS = 12
_HALF_MASK = (1 << _HALF_BITS) - 1
_EMIT_SLICE = 1 << 17  # words per ``write`` of write_family


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


def write_family(family: Family, fmt: str, write: Callable[[str], object]) -> None:
    """Pass the text that ``family_to_lines`` (``fmt`` "lines") or
    ``family_to_json`` ("json") returns to ``write``, a slice of words at a
    time, so the whole text is never held."""
    style, between, head, tail = _framing(family, fmt)
    words = family._arr
    for start in range(0, max(words.size, 1), _EMIT_SLICE):
        stop = start + _EMIT_SLICE
        write(render_text(words[start:stop], style, between, head, tail if stop >= words.size else ""))
        head = between


# Readers cut files into blocks of whole sets of about this many bytes, so
# that their memory stays bounded however large the file.
_BLOCK_CHARS = 1 << 17
# The most bytes a block may pass to the next: at n = 24 the json head and
# the longest set come to about 300.
_CARRY_MAX = 1 << 10


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


class _TextBytes:
    """A str read as a binary stream, one byte a character: a character
    outside ASCII reads as "?".  Only a slice is ever encoded at once."""

    def __init__(self, text: str) -> None:
        self._text, self._at = text, 0

    def readinto(self, view: memoryview) -> int:
        chunk = self._text[self._at : self._at + len(view)].encode("ascii", "replace")
        view[: len(chunk)] = chunk
        self._at += len(chunk)
        return len(chunk)


def _ends_at_pads(buf: np.ndarray, pad: int) -> np.ndarray:
    """For each ``pad`` byte of ``buf`` (its first and last byte are two),
    the running sum of the element bits that the runs of digits before it
    spell.  Each run reads as the element its first two digits spell, so
    the words are the steps of the sums; the pad byte occurs once in
    ``between`` and in no rendered set."""
    digit = buf - ord("0") < 10
    before = np.flatnonzero(digit[1:] > digit[:-1])  # the byte before each run
    pair = buf[1:].take(before).astype(np.uint16) << 8 | buf[2:].take(before)
    sums = np.zeros(before.size + 1, dtype=np.uint32)
    np.cumsum(_pair_bits().take(pair), out=sums[1:])  # wraps modulo 2^32: still exact
    # the runs before a pad byte are those whose byte before lies before it
    return sums.take(np.searchsorted(before, np.flatnonzero(buf == pad)))


def _read_blocks(
    stream: BinaryIO,
    style: _Style,
    between: str,
    head: re.Pattern[bytes] = re.compile(b""),
    tail: bytes = b"",
) -> tuple[np.ndarray, re.Match[bytes]] | None:
    """The words and the head of ``stream``'s bytes if they are a ``head``
    match, then ``render_text(words, style, between)``, then ``tail``; with
    no tail, one more ``between`` may end them.  None for any other bytes.

    Blocks are read into one buffer after a pad byte and the partial set
    that the last block left, and cut after their last ``between``.  A block
    is taken only if its words render back to it byte for byte, so that
    check alone decides what is accepted, wherever the cuts fall.  The words
    go to an array that doubles when full.
    """
    pad, sep, block = ord(between[0]), between.encode("ascii"), _BLOCK_CHARS
    # the pad byte, the carry (at most _CARRY_MAX and a ``between``), the
    # block and the pad byte after it
    buf = np.empty(block + _CARRY_MAX + 16, dtype=np.uint8)
    view = memoryview(buf)
    buf[0] = pad
    words, count = np.empty(0, dtype=np.uint32), 0
    found, carry = None, 0
    while True:
        stop, full = 1 + carry, 1 + carry + block
        while stop < full and (read := stream.readinto(view[stop:full])):
            stop += read
        if stop == full:
            # a rendered block has a ``between`` in every _CARRY_MAX bytes
            window = max(1, stop - _CARRY_MAX - len(sep))
            cut = buf[window:stop].tobytes().rfind(sep)
            if cut < 0:
                if window > 1:
                    return None
                carry = stop - 1
                continue
            cut += window
        else:
            cut = stop - len(tail)
            if cut < 1 or buf[cut:stop].tobytes() != tail:
                return None
            if not tail:  # one more ``between`` may end the bytes
                if cut == 1 and count:
                    return words[:count], found  # the last cut was at it
                if cut > len(sep) and buf[cut - len(sep) : cut].tobytes() == sep:
                    cut -= len(sep)
            buf[cut] = pad
        start = 1
        if found is None:
            found = head.match(buf[1:cut].tobytes())
            if found is None:
                return None
            start += found.end()
            buf[start - 1] = pad
        ends = _ends_at_pads(buf[start - 1 : cut + 1], pad)
        if count + ends.size - 1 > words.size:
            grown = np.empty(max(count + ends.size - 1, 2 * words.size), dtype=np.uint32)
            grown[:count] = words[:count]
            words = grown
        new = np.subtract(ends[1:], ends[:-1], out=words[count : count + ends.size - 1])
        # repeated elements can sum past 2^24, which render_text refuses
        if new.max() >> MAX_GROUND:
            return None
        if render_text(new, style, between).encode("ascii") != buf[start:cut].tobytes():
            return None
        count += new.size
        if stop < full:
            return words[:count], found
        carry = stop - cut - len(sep)
        buf[1 : 1 + carry] = buf[stop - carry : stop]


def _fast_or_text(source: str | BinaryIO, fast: Callable[[BinaryIO], Family | None]) -> Family | str:
    """``fast`` of ``source`` read as bytes, or where it gives None, the text
    of ``source``: ``source`` itself if a str, else the stream decoded from
    where it stood."""
    if isinstance(source, str):
        family = fast(_TextBytes(source))
        return source if family is None else family
    start = source.tell()
    family = fast(source)
    if family is not None:
        return family
    source.seek(start)
    return _read_text(source)


def _read_text(stream: BinaryIO) -> str:
    """The rest of ``stream`` decoded as ``Path.read_text`` decodes a file:
    UTF-8, universal newlines, one decode of all the bytes."""
    text = io.TextIOWrapper(stream, encoding="utf-8")
    try:
        return text.read()
    finally:
        text.detach()  # the caller closes the stream


# The first bytes of the writers' files: "{" for json, a digit or "-" for lines.
_WRITER_FIRST = b"{-0123456789"


def read_family(file: io.BufferedReader, n: int | None) -> Family:
    """The family in ``file``, a buffered binary file such as ``open(path,
    "rb")`` returns.  It is json if it starts with "{" past its whitespace,
    and then its ground size must be ``n`` if ``n`` is given; else it is
    lines, read with ``n``.  A file that starts as a writer's does goes to
    its reader as a byte stream; any other is decoded whole and parsed set
    by set."""
    first = file.peek(1)[:1]
    if first and first in _WRITER_FIRST:
        is_json = first == b"{"
        family = family_from_json(file) if is_json else family_from_lines(file, n)
    else:
        text = _read_text(file)
        is_json = text.lstrip().startswith("{")
        family = _parse_json(text) if is_json else _parse_lines(text, n)
    if is_json and n is not None and n != family.n:
        raise ValueError(f"--n {n} contradicts file ground size {family.n}")
    return family


def family_from_lines(source: str | BinaryIO, n: int | None = None) -> Family:
    """Parse lines format from a str or a seekable binary stream; ``n``
    defaults to the largest element present.  The fast path takes lines
    that each print a set as the writer does, in any order, with or without
    the final newline."""

    def fast(stream: BinaryIO) -> Family | None:
        found = _read_blocks(stream, LINES_STYLE, "\n")
        if found is None:
            return None
        words = found[0]
        try:
            return Family(n if n is not None else max(1, int(words.max()).bit_length()), words)
        except ValueError:
            return None  # a bad ground size or an element above it: reported below

    family = _fast_or_text(source, fast)
    return family if isinstance(family, Family) else _parse_lines(family, n)


def _parse_lines(text: str, n: int | None) -> Family:
    """Set-by-set parse of the lines format, with its error messages."""
    sets: list[tuple[int, ...]] = []
    first = None  # the line and the first element of the first nonempty set
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
        first = first or (lineno, elems[0])
    if n is None:
        n = max((elems[-1] for elems in sets if elems), default=1)
        if n < 1:  # every element is below 1, so no ground size was read
            raise ValueError(f"line {first[0]}: element {first[1]} outside 1..{MAX_GROUND}")
    return _family_of_sets(n, sets)


def _family_of_sets(n: int, sets: list[tuple[int, ...]]) -> Family:
    validate_ground(n)
    words = []
    for elems in sets:
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError(f"set {list(elems)} is not strictly increasing")
        words.append(word_of(elems, n))
    return Family(n, words)


def _layout_json(stream: BinaryIO) -> Family | None:
    """The family of a document in the writer's exact layout with at least
    one set; None for any other bytes, or for a ground size or element the
    family refuses."""
    found = _read_blocks(stream, _JSON_SET_STYLE, _JSON_SEP, _HEAD_PATTERN, _JSON_END)
    if found is None:
        return None
    words, head = found
    try:
        return Family(int(head.group(1)), words)
    except ValueError:
        return None  # a bad ground size or an element above it: reported below


def family_from_json(source: str | BinaryIO) -> Family:
    """Parse a json document from a str or a seekable binary stream.  The
    fast path takes the writer's head and tail and, between them, sets
    printed as the writer does, in any order."""
    family = _fast_or_text(source, _layout_json)
    return family if isinstance(family, Family) else _parse_json(family)


def _parse_json(text: str) -> Family:
    """Set-by-set parse of a json document, with its error messages."""
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
