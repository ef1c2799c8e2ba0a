"""Monte-Carlo probe of the survival threshold for random subfamilies.

Each of the 2^n subsets of the ground set (the empty set included) is
drawn independently with probability p; the survival curve estimates the
probability that the sampled family still satisfies a chosen freeness
predicate, as p sweeps a grid.  Draws are produced by a stateless
splitmix-style mixer keyed on (seed, trial, word), so every figure is
reproducible bit-for-bit on any platform and independent of evaluation
order.

One 64-bit draw per (trial, word) is shared across the whole p-grid: the
family at p holds the words drawn below ``_threshold(p)``.  Families are
then nested in p, and every freeness predicate here is closed under taking
subfamilies, so each trial is decided by one number, its death draw: the
draw of the first word, in increasing draw order, whose addition breaks
freeness, or 2^64 if the whole power set is free.  The trial survives at p
iff ``_threshold(p) <= death``.  Draws are distinct (the mixer is a
bijection), so this gives exactly the counts of sampling and checking the
family at every grid point, and the curve is exactly monotone.  The sweep
builds no ``Family``: ``DEFINITIONS`` maps each definition to its
first-break scan, and the scans for quadruple and union freeness are the
one ``core._first_repeat`` that their predicates run too.  The tests
compare the sweep against ``random_family`` and independent checkers.

Trials run in blocks, so numpy's fixed cost per call is paid once per block
rather than once per trial.  A block is one 2-D array of draws, one row per
trial, of about ``_BLOCK_WORDS`` words; the in-place finalizer
``_mix_array`` computes every trial state and every draw of the block, and
one ``argsort`` along the rows orders it.  From n = 16 on a block holds one
trial, and sorting all 2^n draws would cost most of a trial that dies
within a few hundred words.  The first k words in draw order are exactly
the words drawn below a cutoff, so such a trial sorts only the head of
about ``_HEAD_WORDS`` words below one, and sorts every draw only if it
outlives that head.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import Family, _first_repeat, validate_ground

_MASK64 = (1 << 64) - 1
# Draws per block of trials: below n = 16 a block holds 2^16 / 2^n trials.
_BLOCK_WORDS = 1 << 16
# Words converted to Python ints at a time: a trial usually dies within the
# first few hundred draws, so at large n most of the order stays in numpy.
_ORDER_CHUNK = 256
# Words in the sorted head of a one-trial block, on average.
_HEAD_WORDS = 4096


def _mix(x: int) -> int:
    """64-bit splitmix finalizer; a fixed bijection on 64-bit words."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _require_int(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _threshold(p: float) -> int:
    """Inclusion cutoff on the 64-bit scale; draw < cutoff means include."""
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return int(p * 2.0**64)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One survival sweep: ground size, p grid, trials per point, seed."""

    n: int
    p_grid: tuple[float, ...]
    trials: int
    seed: int
    definition: str = "pairwise"

    def __post_init__(self) -> None:
        validate_ground(self.n)
        grid = tuple(float(p) for p in self.p_grid)
        if not grid:
            raise ValueError("p_grid must be nonempty")
        for p in grid:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("p_grid must be strictly increasing")
        for name in ("trials", "seed"):
            _require_int(name, getattr(self, name))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.definition not in DEFINITIONS:
            raise ValueError(
                f"definition must be one of {sorted(DEFINITIONS)}, got {self.definition!r}"
            )
        object.__setattr__(self, "p_grid", grid)


class SurvivalPoint(NamedTuple):
    p: float
    estimate: float
    stderr: float
    trials: int


@dataclass(frozen=True, slots=True)
class SurvivalCurve:
    """Estimated survival probability per grid point plus the half-crossing."""

    points: tuple[SurvivalPoint, ...]
    crossing: float | None

    def as_csv(self) -> str:
        lines = ["p,estimate,stderr,trials"]
        for pt in self.points:
            lines.append(f"{pt.p},{pt.estimate},{pt.stderr},{pt.trials}")
        return "\n".join(lines) + "\n"

    def as_json_dict(self) -> dict:
        return {
            "points": [
                {
                    "p": pt.p,
                    "estimate": pt.estimate,
                    "stderr": pt.stderr,
                    "trials": pt.trials,
                }
                for pt in self.points
            ],
            "p_half": self.crossing,
        }


def _mix_array(x: np.ndarray) -> np.ndarray:
    """``_mix`` in place on a contiguous ``uint64`` array; returns ``x``.

    The finalizer's multiplies wrap modulo 2^64 in both forms, so the two
    agree bit for bit.  It runs over slices of ``_BLOCK_WORDS`` words, which
    keeps its shift temporaries small at large n.
    """
    flat = x.reshape(-1)
    for start in range(0, flat.size, _BLOCK_WORDS):
        part = flat[start : start + _BLOCK_WORDS]
        part ^= part >> np.uint64(30)
        part *= np.uint64(0xBF58476D1CE4E5B9)
        part ^= part >> np.uint64(27)
        part *= np.uint64(0x94D049BB133111EB)
        part ^= part >> np.uint64(31)
    return x


def _trial_states(seed: int, start: int, count: int) -> np.ndarray:
    """Trial t's state ``_mix(_mix(seed) ^ (t mod 2^64))`` for the ``count``
    trials t from ``start`` on; ``naive_trial_state`` in ``tests/conftest.py``
    is its scalar oracle."""
    trials = np.arange(count, dtype=np.uint64)
    trials += np.uint64(start & _MASK64)  # wraps modulo 2^64, as t does
    trials ^= np.uint64(_mix(seed))
    return _mix_array(trials)


def _block_draws(n: int, states: np.ndarray) -> np.ndarray:
    """One row per trial state: word w's draw ``_mix(state ^ w)`` in column w.

    The block starts as one ``arange`` over all its cells; cell r * 2^n + w
    holds (r << n) ^ w, since w < 2^n, so xoring row r with
    state ^ (r << n) leaves state ^ w without a second array of 2^n words.
    """
    rows = states.size
    block = np.arange(rows << n, dtype=np.uint64).reshape(rows, 1 << n)
    block ^= (states ^ (np.arange(rows, dtype=np.uint64) << np.uint64(n)))[:, None]
    return _mix_array(block)


def _draws(n: int, seed: int, trial_index: int) -> np.ndarray:
    """Every word's 64-bit draw, ``_mix(state ^ w)`` for w in 0..2^n - 1,
    where ``state`` is the trial's (``naive_trial_state`` in
    ``tests/conftest.py``)."""
    return _block_draws(n, _trial_states(seed, trial_index, 1))[0]


def random_family(n: int, p: float, seed: int, trial_index: int) -> Family:
    """One p-random subfamily of the power set, including the empty set.

    Word w is included iff mix(seed, trial_index, w) < p on the 64-bit
    scale, so the family for fixed arguments is identical everywhere.
    """
    validate_ground(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    _require_int("seed", seed)
    _require_int("trial_index", trial_index)
    cutoff = _threshold(p)
    if cutoff > _MASK64:
        return Family(n, np.arange(1 << n))
    return Family(n, np.flatnonzero(_draws(n, seed, trial_index) < np.uint64(cutoff)))


def _first_break_pairwise(words: Iterable[int]) -> int | None:
    """x breaks a free prefix iff x = 0 (x ^ x = 0 is then a member) or x is
    the xor of two prefix words (x ^ a = b puts x on a line with a and b)."""
    prefix: list[int] = []
    sums: set[int] = set()
    for x in words:
        if x == 0 or x in sums:
            return x
        sums.update(map(operator.xor, repeat(x), prefix))
        prefix.append(x)
    return None


# Each definition by name, to its scan: it takes words in increasing draw
# order (every prefix is the sampled family at some p) and returns the first
# word whose addition to the prefix before it breaks freeness, or None if the
# whole power set is free.  No "closed": the coupled sweep needs properties
# every subfamily keeps; closedness is not one.
DEFINITIONS: dict[str, Callable[[Iterable[int]], int | None]] = {
    "pairwise": _first_break_pairwise,
    "quadruple": partial(_first_repeat, operator.xor),
    "union": partial(_first_repeat, operator.or_),
}


def _chunks(order: np.ndarray) -> Iterator[int]:
    for start in range(0, order.size, _ORDER_CHUNK):
        yield from order[start : start + _ORDER_CHUNK].tolist()


def _in_draw_order(draws: np.ndarray) -> Iterator[int]:
    """One trial's words in increasing draw order.

    The words drawn below a cutoff are exactly the first ones in that order.
    The cutoff lets about ``_HEAD_WORDS`` words through, and only they are
    sorted first; all the draws are sorted only for a scan that outlives them.
    """
    head = np.empty(0, dtype=np.intp)
    if draws.size > _HEAD_WORDS:
        cutoff = np.uint64((_HEAD_WORDS << 64) // draws.size)
        head = np.flatnonzero(draws < cutoff)
        head = head[np.argsort(draws[head])]
        yield from head.tolist()
    yield from _chunks(np.argsort(draws)[head.size :])


def _death(draws: np.ndarray, x: int | None) -> int:
    return 1 << 64 if x is None else int(draws[x])


def _trial_death(first_break: Callable[[Iterable[int]], int | None], draws: np.ndarray) -> int:
    """The death draw of the trial whose draws row is ``draws``."""
    return _death(draws, first_break(_in_draw_order(draws)))


def _block_deaths(first_break: Callable[[Iterable[int]], int | None], block: np.ndarray) -> list[int]:
    """The death draws of a block of trials, one per row of draws."""
    if len(block) == 1:
        return [_trial_death(first_break, block[0])]
    order = np.argsort(block, axis=1)
    heads = order[:, :_ORDER_CHUNK].tolist()
    if order.shape[1] <= _ORDER_CHUNK:  # plain lists scan a quarter faster than a chain
        return [_death(draws, first_break(head)) for draws, head in zip(block, heads)]
    return [
        _death(draws, first_break(chain(head, _chunks(rest))))
        for draws, head, rest in zip(block, heads, order[:, _ORDER_CHUNK:])
    ]


def _half_crossing(points: list[SurvivalPoint]) -> float | None:
    """Linear-interpolated p where the curve first drops below 1/2."""
    for i, pt in enumerate(points):
        if pt.estimate < 0.5:
            if i == 0:
                return None
            prev = points[i - 1]
            slope = (pt.p - prev.p) / (prev.estimate - pt.estimate)
            return prev.p + (prev.estimate - 0.5) * slope
    return None


def estimate_survival(cfg: ExperimentConfig) -> SurvivalCurve:
    """Run the sweep and estimate survival per grid point.

    Each trial is decided once, by its death draw: the draw of the first
    word, in draw order, whose addition breaks freeness (2^64 if none does).
    The trial's family at p is the set of words drawn below ``_threshold(p)``,
    so it is free iff ``_threshold(p) <= death``.
    """
    first_break = DEFINITIONS[cfg.definition]
    per_block = max(1, _BLOCK_WORDS >> cfg.n)
    deaths = []
    for start in range(0, cfg.trials, per_block):
        states = _trial_states(cfg.seed, start, min(per_block, cfg.trials - start))
        deaths += _block_deaths(first_break, _block_draws(cfg.n, states))
    deaths.sort()
    points = []
    for p in cfg.p_grid:
        won = cfg.trials - bisect_left(deaths, _threshold(p))
        est = won / cfg.trials
        stderr = (est * (1.0 - est) / cfg.trials) ** 0.5
        points.append(SurvivalPoint(p=p, estimate=est, stderr=stderr, trials=cfg.trials))
    return SurvivalCurve(points=tuple(points), crossing=_half_crossing(points))
