"""Shared helpers: naive re-implementations used as independent oracles,
family builders, and hypothesis strategies.

The naive checkers deliberately avoid Family's membership table and the
transform-based fast paths; they are the second route every fast result
is compared against.  The I/O oracles write and parse one set at a time
and print CLI JSON through ``json.dumps``; the table writers, bulk readers
and CLI printer must match them byte for byte and error for error.
"""

from __future__ import annotations

import itertools
import json
import re

import hypothesis.strategies as st

import deltafree as df


def fam(n: int, *sets: tuple[int, ...]) -> df.Family:
    """Build a Family from 1-based element tuples."""
    return df.Family(n, [df.word_of(s, n) for s in sets])


def naive_delta_free(members) -> bool:
    pool = set(members)
    for a in members:
        for b in members:
            if a ^ b in pool:
                return False
    return True


def naive_delta_closed(members) -> bool:
    pool = set(members)
    for a in members:
        for b in members:
            if a ^ b not in pool:
                return False
    return True


def _pair_images(members, combine):
    for a, b in itertools.combinations(sorted(members), 2):
        yield combine(a, b)


def naive_quadruple_free(members) -> bool:
    images = list(_pair_images(members, lambda a, b: a ^ b))
    return len(images) == len(set(images))


def naive_union_free(members) -> bool:
    images = list(_pair_images(members, lambda a, b: a | b))
    return len(images) == len(set(images))


def naive_generate(n: int, sc: int) -> set[int]:
    """Direct transcription of the construction rule, one word at a time."""
    out = set()
    for w in range(1 << n):
        odd = bin(w).count("1") % 2 == 1
        trace_odd = bin(w & sc).count("1") % 2 == 1
        if odd != trace_odd:
            out.add(w)
    return out


@st.composite
def family_strategy(draw, max_n: int = 6, max_size: int | None = None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    words = draw(
        st.frozensets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=max_size)
    )
    return df.Family(n, words)


@st.composite
def generator_strategy(draw, min_n: int = 1, max_n: int = 10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    sc = draw(st.integers(min_value=0, max_value=(1 << n) - 2))
    return df.Generator(n, sc)


# ---------------------------------------------------------------- I/O oracles


def oracle_to_lines(family: df.Family) -> str:
    out = []
    for w in family.members:
        elems = df.elements_of(w)
        out.append(" ".join(map(str, elems)) if elems else "-")
    return "\n".join(out) + ("\n" if out else "")


def oracle_to_json(family: df.Family) -> str:
    payload = {
        "format": df.FORMAT_TAG,
        "n": family.n,
        "sets": [list(df.elements_of(w)) for w in family.members],
    }
    return json.dumps(payload, indent=2) + "\n"


def _oracle_family_of_sets(n, sets) -> df.Family:
    df.validate_ground(n)
    words = []
    for elems in sets:
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError(f"set {list(elems)} is not strictly increasing")
        words.append(df.word_of(elems, n))
    return df.Family(n, words)


def oracle_from_lines(text: str, n: int | None = None) -> df.Family:
    sets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "-":
            sets.append(())
            continue
        try:
            elems = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError(f"line {lineno}: elements must be strictly increasing")
        sets.append(elems)
    if n is not None:
        df.validate_ground(n)
    else:
        n = max((elems[-1] for elems in sets if elems), default=1)
    return _oracle_family_of_sets(n, sets)


def oracle_from_json(text: str) -> df.Family:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("family document must be a JSON object")
    tag = payload.get("format", df.FORMAT_TAG)
    if tag != df.FORMAT_TAG:
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
    return _oracle_family_of_sets(n, sets)


def outcome(parse, *args):
    """A parser's family, or the text of the ValueError it raised."""
    try:
        return parse(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


_INNER_INT_LIST = re.compile(r"\[\s+(-?\d+(?:,\s+-?\d+)*)\s+\]")


def oracle_cli_json(payload: dict) -> str:
    """CLI JSON stdout: indent=2 with innermost integer lists on one line."""
    text = json.dumps(payload, indent=2)
    text = _INNER_INT_LIST.sub(lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    return text + "\n"


def oracle_set_lists(family: df.Family) -> list[list[int]]:
    return [list(df.elements_of(w)) for w in family.members]


@st.composite
def wide_family_strategy(draw):
    """Families up to n = 24, weighted to the empty set, to words with
    bits at and above 12, and to the n = 12 / 13 table boundary."""
    n = draw(st.one_of(st.sampled_from((12, 13, 24)), st.integers(min_value=1, max_value=24)))
    top = (1 << n) - 1
    word = st.one_of(
        st.just(0),
        st.integers(min_value=0, max_value=min(top, 4095)),
        st.integers(min_value=0, max_value=top),
        st.just(top),
    )
    return df.Family(n, draw(st.lists(word, max_size=40)))
