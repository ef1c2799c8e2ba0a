"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same tests pass/fail by name.
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np

import deltafree as df
from conftest import complement_family, parity_census, verify_completeness
from deltafree.cli import main as cli_main

GRID21 = tuple(i / 20 for i in range(21))


def _announce(number: int, text: str) -> None:
    print(f"criterion {number}: PASS  {text}")


def all_generators(n):
    return [df.Generator(n, sc) for sc in range((1 << n) - 1)]


def test_criterion_1_construction_size_and_freeness():
    start = time.monotonic()
    checked = 0
    for n in range(1, 9):
        for g in all_generators(n):
            fam = df.generate_family(g)
            assert len(fam) == 1 << (n - 1)
            assert df.is_delta_free(fam)
            checked += 1
    rng = random.Random(206)
    for n in range(9, 13):
        for sc in rng.sample(range((1 << n) - 1), 200):
            fam = df.generate_family(df.Generator(n, sc))
            assert len(fam) == 1 << (n - 1)
            assert df.is_delta_free(fam)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce(1, f"{checked} constructions, size 2^(n-1) and delta-free, {elapsed:.1f}s")


def test_criterion_2_completeness_at_desk_scale():
    start = time.monotonic()
    expected_totals = {2: 3, 3: 7, 4: 15}
    for n, total in expected_totals.items():
        report = df.enumerate_maximum_families(n)
        assert report.total == total
        assert verify_completeness(report)
        generated = {df.generate_family(g) for g in all_generators(n)}
        assert set(report.families) == generated
    small_elapsed = time.monotonic() - start
    assert small_elapsed < 10.0

    start5 = time.monotonic()
    report5 = df.enumerate_maximum_families(5)
    elapsed5 = time.monotonic() - start5
    assert report5.total == 31
    assert verify_completeness(report5)
    assert set(report5.families) == {df.generate_family(g) for g in all_generators(5)}
    assert elapsed5 < 600.0

    start_large = time.monotonic()
    for n, total in {6: 63, 7: 127}.items():
        report = df.enumerate_maximum_families(n)
        assert report.total == total
        assert report.all_generated
        assert verify_completeness(report)
        assert set(report.families) == {df.generate_family(g) for g in all_generators(n)}
        assert report.class_sizes == tuple(sorted(math.comb(n, k) for k in range(n)))
    elapsed_large = time.monotonic() - start_large
    _announce(
        2,
        f"totals 3/7/15/31/63/127, oracle equals construction "
        f"(n<=4 {small_elapsed:.1f}s, n=5 {elapsed5:.1f}s, n=6,7 {elapsed_large:.1f}s)",
    )


def test_criterion_3_isomorphism_classes():
    sizes3 = df.enumerate_maximum_families(3).class_sizes
    sizes4 = df.enumerate_maximum_families(4).class_sizes
    assert sorted(sizes3) == [1, 3, 3]
    assert sorted(sizes4) == [1, 4, 4, 6]
    _announce(3, "class multisets {1,3,3} and {1,4,6,4}")


def test_criterion_4_half_and_half_split():
    for n in range(2, 9):
        for g in all_generators(n):
            if g.sc == 0:
                continue
            even, odd = parity_census(df.generate_family(g))
            assert even == odd == 1 << (n - 2)
    _announce(4, "every generated family with nonempty sc splits 2^(n-2)/2^(n-2), n<=8")


def test_criterion_5_golden_worked_examples():
    def build(n, *sets):
        return df.Family(n, [df.word_of(s, n) for s in sets])

    worked5 = build(
        5,
        (1,), (2,),
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
        (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5), (2, 3, 5),
        (1, 3, 4, 5), (2, 3, 4, 5),
    )
    assert df.generate_family(df.Generator(5, df.word_of([3, 4, 5], 5))) == worked5

    catalog4 = build(
        4, (1,), (2,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 3, 4), (2, 3, 4)
    )
    gen = df.recognize_generator(catalog4)
    assert gen is not None
    assert gen.sc == df.word_of([3, 4], 4)  # derived value; {3} alone would admit {4}

    # classes by index 2 * card + trace: ee, eo, oe, oo
    split = df.partition_family(catalog4, df.word_of([1, 2, 3], 4))
    assert split[3] == build(4, (1,), (2,))
    assert split[1] == build(4, (1, 4), (2, 4))
    assert split[2] == build(4, (1, 3, 4), (2, 3, 4))
    assert split[0] == build(4, (1, 3), (2, 3))
    _announce(5, "n=5 worked family, catalog sc={3,4}, and the four displayed classes")


def test_criterion_6_partition_algebra():
    # class homomorphism, every word pair and every reference, n <= 6: the
    # class index 2 * card + trace, recomputed here with numpy's popcount
    # rather than the library's fold, of a xor b is idx(a) ^ idx(b), and
    # the partition of the power set puts each word in its index's class
    for n in range(1, 7):
        words = np.arange(1 << n, dtype=np.uint32)
        pair_xor = np.bitwise_xor.outer(words, words)
        card = np.bitwise_count(words) & 1
        for t in range(1 << n):
            idx = card << 1 | np.bitwise_count(words & np.uint32(t)) & 1
            assert (idx[pair_xor] == (idx[:, None] ^ idx[None, :])).all()
            split = df.partition_family(df.Family(n, words), t)
            assert split == tuple(df.Family(n, words[idx == c]) for c in range(4))

    # equal-split prediction vs direct counting, all (sc, t), 3 <= n <= 8
    for n in range(3, 9):
        quarter = 1 << (n - 3)
        for g in all_generators(n):
            fam = df.generate_family(g)
            for t in range(1 << n):
                observed = all(len(sub) == quarter for sub in df.partition_family(fam, t))
                assert df.equal_split_expected(g, t) == observed
    _announce(6, "xor-class homomorphism (n<=6) and equal-split agreement (3<=n<=8)")


def test_criterion_7_complement_closure():
    for n in range(1, 9):
        for g in all_generators(n):
            comp = complement_family(df.generate_family(g))
            assert df.is_delta_closed(comp)
    _announce(7, "complement of every generated family is delta-closed, n<=8")


def test_criterion_8_threshold_harness_properties():
    start = time.monotonic()
    cfg = df.ExperimentConfig(n=4, p_grid=GRID21, trials=1000, seed=1729)
    curve = df.estimate_survival(cfg)
    assert curve.points[0].estimate == 1.0
    assert curve.points[-1].estimate == 0.0
    estimates = [pt.estimate for pt in curve.points]
    assert all(b <= a for a, b in zip(estimates, estimates[1:]))
    again = df.estimate_survival(cfg)
    assert curve.as_csv() == again.as_csv()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(8, f"exact endpoints, exactly monotone 21-point curve, reproducible, {elapsed:.1f}s")


def test_criterion_9_serialization_and_determinism(capsys):
    for n in (1, 2, 3, 4):
        for bits in range(1 << (1 << n)):
            members = [w for w in range(1 << n) if bits >> w & 1]
            fam = df.Family(n, members)
            assert df.family_from_lines(df.family_to_lines(fam), n) == fam
            assert df.family_from_json(df.family_to_json(fam)) == fam
    rng = random.Random(906)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        size = rng.randint(0, min(1 << n, 256))
        fam = df.Family(n, rng.sample(range(1 << n), size))
        assert df.family_from_lines(df.family_to_lines(fam), n) == fam
        assert df.family_from_json(df.family_to_json(fam)) == fam

    assert cli_main(["enumerate", "--n", "4", "--classes"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["enumerate", "--n", "4", "--classes"]) == 0
    second = capsys.readouterr().out
    assert first == second and json.loads(first)["total"] == 15
    _announce(9, "round-trips (exhaustive n<=4 plus 10,000 random n<=12), repeat-identical bytes")
