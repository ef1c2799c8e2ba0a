"""Monte-Carlo probe of the survival threshold for random subfamilies.

Each of the 2^n subsets of the ground set (the empty set included) is
drawn independently with probability p; the survival curve estimates the
probability that the sampled family still satisfies a chosen freeness
predicate, as p sweeps a grid.  Draws are produced by a stateless
splitmix-style mixer keyed on (seed, trial, word), so every figure is
reproducible bit-for-bit on any platform and independent of evaluation
order.

One uniform per (trial, word) is shared across the whole p-grid and
compared against each p.  Sampled families are then nested in p, and
since every freeness predicate here is closed under taking subfamilies,
each trial's survival indicator is non-increasing in p; the aggregated
curve is exactly monotone, no statistical slack needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import _CHECKS, Family, validate_ground

_MASK64 = (1 << 64) - 1

# No "closed": the coupled sweep needs properties every subfamily keeps; closedness is not one.
DEFINITIONS: dict[str, Callable[[Family], bool]] = {
    name: _CHECKS[name][0] for name in ("pairwise", "quadruple", "union")
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


def random_family(n: int, p: float, seed: int, trial_index: int) -> Family:
    """One p-random subfamily of the power set, including the empty set.

    Word w is included iff mix(seed, trial_index, w) < p on the 64-bit
    scale, so the family for fixed arguments is identical everywhere.
    """
    validate_ground(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    state = _trial_state(seed, trial_index)
    cutoff = _threshold(p)
    return Family(n, [w for w in range(1 << n) if _mix(state ^ w) < cutoff])


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

    Each (trial, word) draw is shared across the grid, making every trial's
    survival indicator exactly monotone in p.
    """
    checker = DEFINITIONS[cfg.definition]
    size = 1 << cfg.n
    cutoffs = [_threshold(p) for p in cfg.p_grid]
    survivors = [0] * len(cfg.p_grid)
    for trial in range(cfg.trials):
        state = _trial_state(cfg.seed, trial)
        draws = [_mix(state ^ w) for w in range(size)]
        for gi, cutoff in enumerate(cutoffs):
            fam = Family(cfg.n, [w for w in range(size) if draws[w] < cutoff])
            if checker(fam):
                survivors[gi] += 1
    points = []
    for p, won in zip(cfg.p_grid, survivors):
        est = won / cfg.trials
        stderr = (est * (1.0 - est) / cfg.trials) ** 0.5
        points.append(SurvivalPoint(p=p, estimate=est, stderr=stderr, trials=cfg.trials))
    return SurvivalCurve(points=tuple(points), crossing=_half_crossing(points))
