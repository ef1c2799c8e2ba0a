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
builds no ``Family`` and calls no predicate; ``random_family`` and the
predicates are the route tests compare it against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import Family, is_delta_free, is_quadruple_delta_free, is_union_free, validate_ground

_MASK64 = (1 << 64) - 1
# Words converted to Python ints at a time: a trial usually dies within the
# first few hundred draws, so at large n most of the order stays in numpy.
_ORDER_CHUNK = 256

# No "closed": the coupled sweep needs properties every subfamily keeps; closedness is not one.
DEFINITIONS: dict[str, Callable[[Family], bool]] = {
    "pairwise": is_delta_free,
    "quadruple": is_quadruple_delta_free,
    "union": is_union_free,
}


def _mix(x: int) -> int:
    """64-bit splitmix finalizer; a fixed bijection on 64-bit words."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_state(seed: int, trial_index: int) -> int:
    return _mix(_mix(seed) ^ (trial_index & _MASK64))


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
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
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


def _draws(n: int, seed: int, trial_index: int) -> np.ndarray:
    """Every word's 64-bit draw, ``_mix(state ^ w)`` for w in 0..2^n - 1, in
    wrapping ``uint64`` arithmetic (the finalizer's multiplies are taken
    modulo 2^64 in both forms, so the two agree bit for bit)."""
    x = np.arange(1 << n, dtype=np.uint64)
    x ^= np.uint64(_trial_state(seed, trial_index))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def random_family(n: int, p: float, seed: int, trial_index: int) -> Family:
    """One p-random subfamily of the power set, including the empty set.

    Word w is included iff mix(seed, trial_index, w) < p on the 64-bit
    scale, so the family for fixed arguments is identical everywhere.
    """
    validate_ground(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    cutoff = _threshold(p)
    if cutoff > _MASK64:
        return Family(n, np.arange(1 << n))
    return Family(n, np.flatnonzero(_draws(n, seed, trial_index) < np.uint64(cutoff)))


# Each scan takes words in increasing draw order (every prefix is the
# sampled family at some p) and returns the first word whose addition to
# the prefix before it breaks freeness, or None if the whole power set is
# free.  A prefix that is still free only needs the new pairs checked.


def _first_break_pairwise(words: Iterable[int]) -> int | None:
    """x breaks a free prefix iff x = 0 (x ^ x = 0 is then a member) or x is
    the xor of two prefix words (x ^ a = b puts x on a line with a and b)."""
    prefix: list[int] = []
    sums: set[int] = set()
    for x in words:
        if x == 0 or x in sums:
            return x
        sums.update([x ^ a for a in prefix])
        prefix.append(x)
    return None


def _first_break_quadruple(words: Iterable[int]) -> int | None:
    """x breaks a free prefix iff some x ^ a is a prefix pair's difference;
    the new differences x ^ a are distinct among themselves."""
    prefix: list[int] = []
    diffs: set[int] = set()
    for x in words:
        new = [x ^ a for a in prefix]
        if not diffs.isdisjoint(new):
            return x
        diffs.update(new)
        prefix.append(x)
    return None


def _first_break_union(words: Iterable[int]) -> int | None:
    """x breaks a free prefix iff some x | a is a prefix pair's union, or two
    of the new unions x | a, x | b coincide."""
    prefix: list[int] = []
    unions: set[int] = set()
    for x in words:
        new = {x | a for a in prefix}
        if len(new) < len(prefix) or not unions.isdisjoint(new):
            return x
        unions.update(new)
        prefix.append(x)
    return None


_FIRST_BREAK: dict[str, Callable[[Iterable[int]], int | None]] = {
    "pairwise": _first_break_pairwise,
    "quadruple": _first_break_quadruple,
    "union": _first_break_union,
}


def _in_draw_order(draws: np.ndarray) -> Iterator[int]:
    order = np.argsort(draws)
    for start in range(0, order.size, _ORDER_CHUNK):
        yield from order[start : start + _ORDER_CHUNK].tolist()


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
    first_break = _FIRST_BREAK[cfg.definition]
    deaths = []
    for trial in range(cfg.trials):
        draws = _draws(cfg.n, cfg.seed, trial)
        x = first_break(_in_draw_order(draws))
        deaths.append(1 << 64 if x is None else int(draws[x]))
    deaths.sort()
    points = []
    for p in cfg.p_grid:
        won = cfg.trials - bisect_left(deaths, _threshold(p))
        est = won / cfg.trials
        stderr = (est * (1.0 - est) / cfg.trials) ** 0.5
        points.append(SurvivalPoint(p=p, estimate=est, stderr=stderr, trials=cfg.trials))
    return SurvivalCurve(points=tuple(points), crossing=_half_crossing(points))
