"""``CaseGen``'s integer map and rational generation against the ``Fraction``
bodies it replaced, ``reference.oracle_*``: the same objects from the same
draws, in the same order.

Each oracle drives its own ``CaseGen`` on the same seed, so a draw added,
dropped or moved shows as a different object or a different ``rng`` state.
The suites' case streams are pinned by hash, since a passing report shows
no drawn map, and the map draws are checked to build no ``Fraction``.
"""

import hashlib
import random
from fractions import Fraction as F
from itertools import islice

import pytest

from germkit import suites
from germkit.examples import bundle
from germkit.fuzz import CaseGen, FuzzBounds
from germkit.leafspace import Side
from germkit.suites import SuiteConfig
from reference import oracle_fraction_between, oracle_homeo, oracle_mutate_below, oracle_plmap


def same(got, want):
    return got == want and repr(got) == repr(want)


def drawn_spaces():
    """Forty drawn leaf spaces, covering both sides and 1 to 6 branches,
    then the spaces of e1, e2 and e3."""
    gen = CaseGen(0)
    spaces = [gen.leafspace() for _ in range(40)]
    shapes = {(space.side, len(space.branches)) for space in spaces}
    assert shapes == {(side, n) for side in Side for n in range(1, 7)}
    return spaces + [bundle(name).space for name in ("e1", "e2", "e3")]


@pytest.mark.parametrize("max_denominator", [2, 100])
@pytest.mark.parametrize("max_breakpoints", range(6))
def test_streams_match_fraction_oracles(max_breakpoints, max_denominator):
    bounds = FuzzBounds(max_breakpoints=max_breakpoints, max_denominator=max_denominator)
    spaces = drawn_spaces()
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
        space = spaces[seed % len(spaces)]
        assert same(gen.homeo(space), oracle_homeo(oracle, space))
        assert gen.rng.getstate() == oracle.rng.getstate(), seed


def suite_stream(cases):
    """A seed's case stream of a suite, from its case generator."""
    return lambda seed: (case for _, case in cases(SuiteConfig(seed=seed, cases=200), []))


STREAMS = {
    "germ-group-axioms": suite_stream(suites._germ_group_cases),
    "germ-quotient": suite_stream(suites._quotient_cases),
    "order-laws": suite_stream(suites._order_cases),
    "sample-homeos-e3": lambda seed: suites._sample_homeos(bundle("e3"), CaseGen(seed), 200),
}

# sha256 of the reprs, one a line, of each stream's first 200 cases; a change
# means a draw changed, which a passing report would not show
STREAM_SHA256 = {
    ("germ-group-axioms", 0): "1ea91d8c943868fa620cc9555c38072e1218d752d300b02a3dcc6a67ee71f91b",
    ("germ-group-axioms", 7): "5cbc9aed046fae73f40aee9359a686facafd9e1b46b3a4bdeebd185b82804122",
    ("germ-quotient", 0): "ffdcba58e0c7c637de9719e1a75abb77e7e201cc21495f5bbf8ef7d8facb47a7",
    ("germ-quotient", 7): "224051258ee3e83c6203dcd68c9012d4bafe79437c5c023e4703ea7483ca0945",
    ("order-laws", 0): "af2a9baa17a582c7fe1bcd8b990074d4763a9f36d173e338e660be0cbd3fe818",
    ("order-laws", 7): "d6218454382a0e10dcfc5a2fa30a2531627fceebb7e714749a9e1c15ac61e04f",
    ("sample-homeos-e3", 0): "dc5ad6d5a74ebda86b28d55e032abc4c43f29eb79c3ca1dc8d04952e7005f94f",
    ("sample-homeos-e3", 7): "2c4c8ab031704170c7ec3707deddad83f4add572c91e428ac4fa13d9fad8f16b",
}


@pytest.mark.parametrize("stream, seed", sorted(STREAM_SHA256))
def test_case_streams_are_pinned(stream, seed):
    cases = list(islice(STREAMS[stream](seed), 200))
    assert len(cases) == 200
    text = "\n".join(repr(case) for case in cases)
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_SHA256[stream, seed]


def test_map_draws_build_no_fraction(monkeypatch):
    """``plmap``, ``mutate_below``, ``_pl_fixing`` and ``homeo`` hand int
    pairs to the canonicalizer: no ``Fraction`` is built inside them."""
    spaces = drawn_spaces()
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def count(draw, *args):
        """``draw(*args)``, with each ``Fraction`` built meanwhile recorded."""
        monkeypatch.setattr(F, "__new__", counting)
        try:
            return draw(*args)
        finally:
            monkeypatch.undo()

    count(F, 3, 6)
    assert built == [(3, 6)]  # the wrapper sees a construction
    built.clear()
    for seed in range(20):
        gen = CaseGen(seed)
        cutoff = gen.fraction()
        f = count(gen.plmap)
        count(gen.plmap, 0)
        count(gen.mutate_below, f, cutoff)
        assert built == [], seed
        count(gen._pl_fixing, [(-7, 2), (0, 1), (5, 3)], (3, 2), (1, 1))
        for space in spaces:
            count(gen.homeo, space)
        assert built == [], seed


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
