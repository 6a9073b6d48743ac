"""``CaseGen``'s integer map and rational generation against the ``Fraction``
bodies it replaced, ``reference.oracle_*``: the same objects from the same
draws, in the same order.

Each oracle drives its own ``CaseGen`` on the same seed, so a draw added,
dropped or moved shows as a different object or a different ``rng`` state.
"""

import random
from fractions import Fraction as F

import pytest

from germkit.fuzz import CaseGen, FuzzBounds
from reference import oracle_fraction_between, oracle_mutate_below, oracle_plmap


def same(got, want):
    return got == want and repr(got) == repr(want)


@pytest.mark.parametrize("max_denominator", [2, 100])
@pytest.mark.parametrize("max_breakpoints", range(6))
def test_streams_match_fraction_oracles(max_breakpoints, max_denominator):
    bounds = FuzzBounds(max_breakpoints=max_breakpoints, max_denominator=max_denominator)
    for seed in range(50):
        gen, oracle = CaseGen(seed, bounds), CaseGen(seed, bounds)
        for _ in range(3):
            f = gen.plmap()
            assert same(f, oracle_plmap(oracle))
            limit = gen.rng.randint(0, max_breakpoints)
            assert limit == oracle.rng.randint(0, max_breakpoints)
            assert same(gen.plmap(limit), oracle_plmap(oracle, limit))
            cutoff = gen.fraction()
            assert cutoff == oracle.fraction()
            assert same(gen.mutate_below(f, cutoff), oracle_mutate_below(oracle, f, cutoff))
            lo, hi = gen.fraction(), gen.fraction(lo=51, hi=60)  # lo <= 50 < 51 <= hi
            assert (lo, hi) == (oracle.fraction(), oracle.fraction(lo=51, hi=60))
            assert same(gen.fraction_between(lo, hi), oracle_fraction_between(oracle, lo, hi))
        assert gen.rng.getstate() == oracle.rng.getstate(), seed


def test_fraction_between_is_strictly_between():
    gen = CaseGen(0, FuzzBounds(max_denominator=2))
    for lo, hi in [(F(-3, 7), F(-1, 7)), (F(0), F(1, 10**20)), (F(-5), F(5, 3))]:
        for _ in range(20):
            assert lo < gen.fraction_between(lo, hi) < hi


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_randint_draws_as_random_randint(seed):
    """``CaseGen._randint`` gives ``Random.randint``'s value from the same
    draws: ``a == b`` (which still draws), the ranges ``CaseGen`` asks
    for, and a range wider than ``2**20``."""
    d = 100
    ranges = [(0, 0), (5, 5), (-3, -3), (1, d), (-50 * d, 50 * d), (1, 12), (2, d),
              (1, 2 * d - 1), (0, 5), (0, d - 1), (1, 4 * d), (1, 8), (0, 8), (1, 6),
              (0, 3), (-(2**20) - 3, 2**21), (0, 2**64)]
    gen, reference = CaseGen(seed), random.Random(seed)
    for _ in range(40):
        for a, b in ranges:
            assert gen._randint(a, b) == reference.randint(a, b), (a, b)
    assert gen.rng.getstate() == reference.getstate()


def test_randint_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        CaseGen(0)._randint(1, 0)
