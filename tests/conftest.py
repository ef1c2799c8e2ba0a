"""Shared helpers: naive re-implementations used as independent oracles,
family builders, and hypothesis strategies.

The naive checkers deliberately avoid Family's binary-search membership,
its scattered membership vector and the transform-based fast paths; they
work on Python sets of the members and are the second route every fast
result is compared against.  The I/O oracles write and parse one set at a time
and print CLI JSON through ``json.dumps``; the table writers, bulk readers
and CLI printer must match them byte for byte and error for error.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
import re

import hypothesis.strategies as st
import numpy as np

import deltafree as df
from deltafree.experiments import _half_crossing, _mix


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


def _first_member_pair(members, present: bool):
    pool = set(members)
    ordered = sorted(members)
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            if (a ^ b in pool) == present:
                return (a, b)
    return None


def naive_delta_violation(members):
    """Lexicographically first (A, B), A <= B, with A xor B a member."""
    return _first_member_pair(members, True)


def naive_closure_violation(members):
    """Lexicographically first (A, B), A <= B, with A xor B not a member."""
    return _first_member_pair(members, False)


def _pair_images(members, combine):
    for a, b in itertools.combinations(sorted(members), 2):
        yield combine(a, b)


def naive_quadruple_free(members) -> bool:
    images = list(_pair_images(members, lambda a, b: a ^ b))
    return len(images) == len(set(images))


def naive_union_free(members) -> bool:
    images = list(_pair_images(members, lambda a, b: a | b))
    return len(images) == len(set(images))


def _naive_pair_collision(members, combine):
    """First (A, B, C, D): (A, B) the first pair in scan order whose image
    another pair shares, (C, D) the first such other pair."""
    pairs = list(itertools.combinations(sorted(members), 2))
    by_image: dict[int, list] = {}
    for a, b in pairs:
        by_image.setdefault(combine(a, b), []).append((a, b))
    for a, b in pairs:
        same = by_image[combine(a, b)]
        if len(same) > 1:
            return (a, b) + same[1]
    return None


def naive_quadruple_collision(members):
    """First pair collision under xor (see _naive_pair_collision)."""
    return _naive_pair_collision(members, operator.xor)


def naive_union_collision(members):
    """First pair collision under union (see _naive_pair_collision)."""
    return _naive_pair_collision(members, operator.or_)


def naive_canonical_form(family: df.Family) -> df.Family:
    """Least relabeling by brute force: all n! relabelings, each sorted,
    then the lexicographically least row."""
    n = family.n
    m = family._arr
    if m.size == 0:
        return family
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint32)
    relabeled = np.zeros((perms.shape[0], m.size), dtype=np.uint32)
    for i in range(n):
        bit = ((m >> i) & 1).astype(np.uint32)
        relabeled |= bit[None, :] << perms[:, i][:, None]
    relabeled.sort(axis=1)
    best = relabeled[np.lexsort(relabeled.T[::-1])[0]]
    return df.Family(n, best)


def naive_maximum_families(n: int) -> list[tuple[int, ...]]:
    """Every delta-free family of 2^(n-1) nonempty words, sorted, by
    depth-first search with only the count bound: a branch is abandoned
    when fewer candidates remain than members are missing."""
    out: list[tuple[int, ...]] = []

    def dfs(prefix: list[int], cand: int, need: int) -> None:
        if need == 0:
            out.append(tuple(prefix))
            return
        while cand:
            if cand.bit_count() < need:
                return
            low = cand & -cand
            cand ^= low
            x = low.bit_length() - 1
            newly = 0
            for y in prefix:
                newly |= 1 << (x ^ y)
            prefix.append(x)
            dfs(prefix, cand & ~newly, need - 1)
            prefix.pop()

    dfs([], (1 << (1 << n)) - 2, 1 << (n - 1))
    return sorted(out)


# Each survival definition by name, to a predicate that shares no code with
# the sweep's first-break scans.
PREDICATES = {
    "pairwise": df.is_delta_free,
    "quadruple": lambda f: naive_quadruple_free(f.members),
    "union": lambda f: naive_union_free(f.members),
}


def naive_survival(cfg: df.ExperimentConfig) -> df.SurvivalCurve:
    """The sweep point by point: every (trial, p) family sampled afresh with
    random_family and judged by the definition's predicate in PREDICATES."""
    checker = PREDICATES[cfg.definition]
    points = []
    for p in cfg.p_grid:
        won = sum(
            checker(df.random_family(cfg.n, p, cfg.seed, trial)) for trial in range(cfg.trials)
        )
        est = won / cfg.trials
        stderr = (est * (1.0 - est) / cfg.trials) ** 0.5
        points.append(df.SurvivalPoint(p=p, estimate=est, stderr=stderr, trials=cfg.trials))
    return df.SurvivalCurve(points=tuple(points), crossing=_half_crossing(points))


def naive_trial_state(seed: int, trial_index: int) -> int:
    """The 64-bit state of one survival trial, one scalar at a time: the
    oracle for the sweep's vector ``experiments._trial_states``."""
    return _mix(_mix(seed) ^ (trial_index & ((1 << 64) - 1)))


def naive_generate(n: int, sc: int) -> set[int]:
    """Direct transcription of the construction rule, one word at a time."""
    out = set()
    for w in range(1 << n):
        odd = bin(w).count("1") % 2 == 1
        trace_odd = bin(w & sc).count("1") % 2 == 1
        if odd != trace_odd:
            out.add(w)
    return out


def parity_rule_family(n: int, sc: int) -> df.Family:
    """The construction rule, vectorized with numpy's popcount: the words
    whose cardinality parity differs from their trace parity against sc.
    generate_family builds the same words another way, as the words with
    odd trace against s = ground \\ sc."""
    words = np.arange(1 << n, dtype=np.uint32)
    card = np.bitwise_count(words) & 1
    trace = np.bitwise_count(words & np.uint32(sc)) & 1
    return df.Family(n, words[card != trace])


def parity_census(family: df.Family) -> tuple[int, int]:
    """(even member count, odd member count)."""
    odd = int((np.bitwise_count(family._arr) & 1).sum())
    return (len(family) - odd, odd)


def all_odd_family(n: int) -> df.Family:
    """All 2^(n-1) odd-cardinality subsets of {1, ..., n}."""
    return parity_rule_family(n, 0)


def complement_family(family: df.Family) -> df.Family:
    """All words of the power set that are not members."""
    return df.Family(family.n, np.flatnonzero(family.table_bits() == 0))


def verify_completeness(report: df.EnumerationReport) -> bool:
    """True iff the report holds all 2^n - 1 families and each one is
    recognized as a generated family."""
    return report.total == (1 << report.n) - 1 and all(
        df.recognize_generator(f) is not None for f in report.families
    )


def solve_gf2(cols, rhs, n):
    """The word t with parity(cols[i] & t) = bit i of rhs for every i, that
    is M^T t = rhs for the matrix M with columns ``cols``; None if M is
    singular."""
    eqs = [[c, rhs >> i & 1] for i, c in enumerate(cols)]
    for bit in range(n):
        pivot = next((i for i in range(bit, n) if eqs[i][0] >> bit & 1), None)
        if pivot is None:
            return None
        eqs[bit], eqs[pivot] = eqs[pivot], eqs[bit]
        for i in range(n):
            if i != bit and eqs[i][0] >> bit & 1:
                eqs[i][0] ^= eqs[bit][0]
                eqs[i][1] ^= eqs[bit][1]
    return sum(b << i for i, (_, b) in enumerate(eqs))


def random_gl(rng: random.Random, n: int) -> list[int]:
    """The columns of a uniformly random invertible n x n matrix over GF(2)."""
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        if solve_gf2(cols, 0, n) is not None:
            return cols


def apply_gf2(cols, words):
    """M w for every word, M given by its columns, one 256-entry table per byte."""
    out = np.zeros_like(words)
    byte = np.arange(256, dtype=np.uint32)
    for k in range(0, len(cols), 8):
        table = np.zeros(256, dtype=np.uint32)
        for i, c in enumerate(cols[k : k + 8]):
            table ^= (byte >> i & 1) * np.uint32(c)
        out ^= table[words >> k & 0xFF]
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


def oracle_render_text(words, style, between, head="", tail="") -> str:
    """``render_text`` by its definition: each word's elements inside the
    style's brackets, or its empty-set token, joined by ``between``."""
    sep, opening, closing, empty = style
    sets = [opening + sep.join(map(str, df.elements_of(w))) + closing if w else empty for w in words]
    return head + between.join(sets) + tail


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
    sets, numbered = [], []
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
        numbered.append((lineno, elems))
    if n is not None:
        df.validate_ground(n)
    else:
        n = max((elems[-1] for elems in sets if elems), default=1)
        if n < 1:  # no element is in range: name the first one read
            lineno, first = next((k, e) for k, e in numbered if e)
            raise ValueError(f"line {lineno}: element {first[0]} outside 1..{df.MAX_GROUND}")
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
