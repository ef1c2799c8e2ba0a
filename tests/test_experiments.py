"""Random subfamily sampling and the survival sweep: endpoint contracts,
determinism, coupling monotonicity, the vector mixer and trial blocks
against the scalar mixer, the death-draw sweep against the per-point loop,
the sorted head and its fallback against the full sort, the closed-form
sanity bound, and the exact survival curve at n <= 3."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import PREDICATES, naive_survival, naive_trial_state
from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

import deltafree as df
from deltafree.experiments import (
    _BLOCK_WORDS,
    _HEAD_WORDS,
    _block_deaths,
    _block_draws,
    _draws,
    _mix,
    _trial_death,
    _trial_states,
)

GRID21 = tuple(i / 20 for i in range(21))


def small_cfg(**kw):
    base = dict(n=3, p_grid=(0.0, 0.3, 0.7, 1.0), trials=40, seed=11)
    base.update(kw)
    return df.ExperimentConfig(**base)


class TestRandomFamily:
    def test_p0_always_empty(self):
        for trial in range(20):
            assert len(df.random_family(4, 0.0, 99, trial)) == 0

    def test_p1_always_full_power_set(self):
        for trial in range(20):
            f = df.random_family(3, 1.0, 99, trial)
            assert f.members == tuple(range(8))
            assert not df.is_delta_free(f)  # the empty set is in there

    def test_fixed_arguments_reproduce(self):
        a = df.random_family(5, 0.37, 1234, 56)
        b = df.random_family(5, 0.37, 1234, 56)
        assert a == b

    def test_different_trials_differ_somewhere(self):
        fams = {df.random_family(5, 0.5, 7, t).members for t in range(16)}
        assert len(fams) > 1

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=30)
    def test_nested_in_p(self, seed, trial):
        small = set(df.random_family(4, 0.2, seed, trial).members)
        large = set(df.random_family(4, 0.6, seed, trial).members)
        assert small <= large

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            df.random_family(3, 1.5, 0, 0)

    @pytest.mark.parametrize(
        "name, seed, trial",
        [("seed", 1.5, 0), ("seed", True, 0), ("seed", "1", 0),
         ("trial_index", 0, 1.5), ("trial_index", 0, False)],
    )
    def test_seed_and_trial_index_must_be_ints(self, name, seed, trial):
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            df.random_family(3, 0.5, seed, trial)


SEEDS_AND_TRIALS = [
    (0, 0), (1, 1), (7, 3), (2024, 1999), (2**32 + 5, 17), (2**63, 0),
    (2**64 - 1, 2**40), (12345, 2**64), (2**63 + 99, 2**64 + 7),
]


class TestDraws:
    @pytest.mark.parametrize("seed, trial", SEEDS_AND_TRIALS)
    def test_vector_mixer_matches_scalar_mix(self, seed, trial):
        state = naive_trial_state(seed, trial)
        expected = [_mix(state ^ w) for w in range(1 << 10)]
        assert _draws(10, seed, trial).tolist() == expected

    @pytest.mark.parametrize("seed, trial", SEEDS_AND_TRIALS + [(5, 2**64 - 2)])
    def test_vector_trial_states_match_scalar(self, seed, trial):
        # the last case wraps past 2^64 - 1 as the scalar form's mask does
        expected = [naive_trial_state(seed, trial + i) for i in range(5)]
        assert _trial_states(seed, trial, 5).tolist() == expected

    def test_block_rows_match_scalar_mix(self):
        states = _trial_states(2**63 + 99, 2**64 - 3, 6)
        block = _block_draws(5, states)
        expected = [[_mix(state ^ w) for w in range(32)] for state in states.tolist()]
        assert block.tolist() == expected


class TestConfigValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            small_cfg(p_grid=(0.0, 0.5, 0.5))

    def test_grid_inside_unit_interval(self):
        with pytest.raises(ValueError):
            small_cfg(p_grid=(-0.1, 0.5))

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_cfg(trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2.5), ("trials", True), ("trials", "40"), ("seed", 1.5), ("seed", False)],
    )
    def test_trials_and_seed_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            small_cfg(**{field: value})

    def test_definition_known(self):
        with pytest.raises(ValueError):
            small_cfg(definition="sideways")


class TestEstimateSurvival:
    def test_endpoints_exact(self):
        curve = df.estimate_survival(small_cfg())
        assert curve.points[0].estimate == 1.0
        assert curve.points[-1].estimate == 0.0

    def test_coupled_curve_exactly_monotone(self):
        cfg = df.ExperimentConfig(n=4, p_grid=GRID21, trials=300, seed=5)
        ests = [pt.estimate for pt in df.estimate_survival(cfg).points]
        assert all(b <= a for a, b in zip(ests, ests[1:]))

    def test_reproducible_byte_for_byte(self):
        cfg = small_cfg(trials=120)
        assert df.estimate_survival(cfg).as_csv() == df.estimate_survival(cfg).as_csv()

    def test_matches_per_point_oracle(self):
        # grids hold 0.0 and 1.0: at n = 1 the quadruple and union rules keep
        # the whole power set free, so those trials never die
        for n in range(1, 7):
            p_max = min(1.0, 2.0 / n)
            grid = (0.0,) + tuple(p_max * i / 10 for i in range(1, 10)) + (1.0,)
            for definition in ("pairwise", "quadruple", "union"):
                for seed in (0, 9, 2**63 + 1):
                    cfg = df.ExperimentConfig(
                        n=n, p_grid=grid, trials=25, seed=seed, definition=definition
                    )
                    expected = naive_survival(cfg)
                    curve = df.estimate_survival(cfg)
                    assert curve.as_csv() == expected.as_csv(), (n, definition, seed)
                    assert curve.crossing == expected.crossing, (n, definition, seed)

    @pytest.mark.parametrize("n, trials", [(12, 37), (13, 19), (14, 10)])
    def test_blocks_of_trials_match_per_point_oracle(self, n, trials):
        # several blocks of trials, the last one partial
        per_block = _BLOCK_WORDS >> n
        assert trials > 2 * per_block and trials % per_block
        grid = tuple(i / 2000 for i in range(25))
        for definition in ("pairwise", "quadruple", "union"):
            cfg = df.ExperimentConfig(
                n=n, p_grid=grid, trials=trials, seed=2**63 + 99, definition=definition
            )
            curve = df.estimate_survival(cfg)
            assert curve.as_csv() == naive_survival(cfg).as_csv(), definition
            # the deaths spread over the grid
            assert len({pt.estimate for pt in curve.points}) > 2, definition

    def test_crossing_interpolates_between_grid_points(self):
        cfg = df.ExperimentConfig(n=4, p_grid=GRID21, trials=400, seed=17)
        curve = df.estimate_survival(cfg)
        assert curve.crossing is not None
        ests = [pt.estimate for pt in curve.points]
        drop = next(i for i, e in enumerate(ests) if e < 0.5)
        assert GRID21[drop - 1] <= curve.crossing <= GRID21[drop]

    def test_crossing_none_when_not_bracketed(self):
        curve = df.estimate_survival(small_cfg(p_grid=(0.0, 0.01), trials=30))
        assert curve.crossing is None

    def test_stderr_formula(self):
        curve = df.estimate_survival(small_cfg(trials=50))
        for pt in curve.points:
            assert pt.stderr == pytest.approx(
                (pt.estimate * (1 - pt.estimate) / pt.trials) ** 0.5
            )
            assert pt.trials == 50

    @pytest.mark.parametrize("definition", ["quadruple", "union"])
    def test_other_definitions_run(self, definition):
        curve = df.estimate_survival(small_cfg(definition=definition, trials=30))
        assert curve.points[0].estimate == 1.0
        assert curve.points[-1].estimate == 0.0

    def test_low_density_sanity_lower_bound(self):
        # families of size <= 1 survive unless the lone member is the empty
        # set, so survival >= (1-p)^N + (N-1) p (1-p)^(N-1) with N = 2^n
        n, p, trials = 3, 0.02, 400
        cfg = df.ExperimentConfig(n=n, p_grid=(p, 0.9), trials=trials, seed=23)
        est = df.estimate_survival(cfg).points[0].estimate
        size = 1 << n
        bound = (1 - p) ** size + (size - 1) * p * (1 - p) ** (size - 1)
        stderr = (bound * (1 - bound) / trials) ** 0.5
        assert est >= bound - 4 * stderr

    def test_pinned_regression_curve(self):
        # frozen output of this exact configuration; guards the draw stream
        cfg = df.ExperimentConfig(n=3, p_grid=(0.0, 0.5, 1.0), trials=50, seed=7)
        curve = df.estimate_survival(cfg)
        assert [pt.estimate for pt in curve.points] == PINNED_ESTIMATES


def _full_sort_death(definition: str, draws: np.ndarray) -> int:
    x = df.DEFINITIONS[definition](np.argsort(draws).tolist())
    return 1 << 64 if x is None else int(draws[x])


def _planted_draws(n: int, first: np.ndarray, cutoff: int, seed: int) -> np.ndarray:
    """Distinct draws with the words of ``first`` drawn below ``cutoff``, in
    that order, and every other word above it, in a seeded random order."""
    size = 1 << n
    rest = np.random.default_rng(seed).permutation(np.setdiff1d(np.arange(size), first))
    draws = np.empty(size, dtype=np.uint64)
    draws[first] = np.arange(first.size, dtype=np.uint64) << np.uint64(40)
    draws[rest] = np.uint64(cutoff) + (np.arange(rest.size, dtype=np.uint64) << np.uint64(45))
    return draws


def _odd_words(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct odd words: a pairwise free family."""
    return np.random.default_rng(seed).choice(np.arange(1, 1 << n, 2), count, replace=False)


class TestSortedHead:
    """A one-trial block sorts only the words drawn below a cutoff, and every
    draw only when the scan outlives them; a block of several trials hands
    each scan its first ``_ORDER_CHUNK`` words and the rest on demand.  Each
    death must be the full sort's."""

    @pytest.mark.parametrize("definition", ["pairwise", "quadruple", "union"])
    @pytest.mark.parametrize("n", [13, 16, 17])
    def test_head_matches_full_sort(self, n, definition):
        for trial in range(3):
            draws = _draws(n, 41, trial)
            assert _trial_death(df.DEFINITIONS[definition], draws) == _full_sort_death(
                definition, draws
            )

    def test_fallback_past_a_free_head(self):
        # only 64 odd words are drawn below the cutoff 2^64 * _HEAD_WORDS / 2^n,
        # so the scan outlives that head and must go on into the full sort
        n = 14
        cutoff = (_HEAD_WORDS << 64) >> n
        head = _odd_words(n, 64, 5)
        draws = _planted_draws(n, head, cutoff, 5)
        assert np.flatnonzero(draws < np.uint64(cutoff)).tolist() == sorted(head.tolist())
        death = _trial_death(df.DEFINITIONS["pairwise"], draws)
        assert death == _full_sort_death("pairwise", draws)
        assert cutoff < death < 1 << 64

    def test_block_scan_past_the_first_chunk(self):
        # row 0 first draws 255 words of {1..9} that hold element 1 (a
        # pairwise free family), then {1, 13}, then the first word xor {1, 13},
        # which breaks freeness as the 257th word, just past the first
        # _ORDER_CHUNK words of the block's order; row 1 is an ordinary trial
        n, cutoff = 13, 1 << 62
        low = np.random.default_rng(6).permutation(np.arange(1, 512, 2))[:255]
        first = np.append(low, [1 | 1 << 12, low[0] ^ (1 | 1 << 12)])
        block = np.stack([_planted_draws(n, first, cutoff, 6), _draws(n, 6, 1)])
        deaths = _block_deaths(df.DEFINITIONS["pairwise"], block)
        assert deaths == [_full_sort_death("pairwise", row) for row in block]
        assert deaths[0] == int(block[0, first[-1]])


# Filled by running the configuration above once and freezing the result;
# see test_pinned_regression_curve.
PINNED_ESTIMATES = [1.0, 0.12, 0.0]


def _free_counts(n: int, definition: str) -> list[int]:
    """c_k, the number of free subfamilies of size k, by brute force over all
    2^(2^n) subfamilies through the definition's predicate in PREDICATES."""
    size = 1 << n
    counts = [0] * (size + 1)
    checker = PREDICATES[definition]
    for mask in range(1 << size):
        family = df.Family(n, [w for w in range(size) if mask >> w & 1])
        if checker(family):
            counts[len(family)] += 1
    return counts


class TestExactSurvival:
    # seed, trials and the |z| bound were fixed before the first run
    @pytest.mark.parametrize("definition", ["pairwise", "quadruple", "union"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_estimate_within_four_stderr(self, n, definition):
        trials = 20_000
        counts = _free_counts(n, definition)
        cfg = df.ExperimentConfig(
            n=n, p_grid=GRID21, trials=trials, seed=1, definition=definition
        )
        for pt in df.estimate_survival(cfg).points:
            # S_n(p) = sum_k c_k p^k (1 - p)^(2^n - k), in rationals so that
            # S = 0 and S = 1 come out exact
            q = Fraction(pt.p)
            exact = sum(
                c * q**k * (1 - q) ** (len(counts) - 1 - k) for k, c in enumerate(counts)
            )
            if exact in (0, 1):
                assert pt.estimate == exact, (pt.p, exact)
            else:
                sigma = float(exact * (1 - exact) / trials) ** 0.5
                assert abs(pt.estimate - exact) <= 4 * sigma, (pt.p, pt.estimate, exact)
