"""Seeded random generators for maps, words, homeomorphisms and spaces.

Everything is driven by a private ``random.Random`` instance, so a given
``(seed, bounds)`` pair always produces the same stream, and every generated
object satisfies its validator by construction.  Magnitudes are kept small
(breakpoints within +-50, denominators bounded) so that downstream ray scans
stay far below the probe coordinates used by the witness suites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .action import Homeo, Word
from .germ import Germ
from .leafspace import LeafSpace, Point, Side
from .plmap import PLMap, _canonical, _splice


MAX_MAGNITUDE = 50


@dataclass(frozen=True)
class FuzzBounds:
    max_breakpoints: int = 5
    max_denominator: int = 100


class CaseGen:
    """Deterministic stream of valid random objects."""

    def __init__(self, seed: int, bounds: FuzzBounds | None = None):
        self.seed = seed
        self.bounds = bounds or FuzzBounds()
        self.rng = random.Random(seed)

    def _randint(self, a: int, b: int) -> int:
        """``self.rng.randint(a, b)``: the same value from the same draws.

        Draws ``getrandbits(k)``, ``k`` the bit length of ``b - a + 1``,
        until the draw is below ``b - a + 1``, as ``randint`` does through
        ``randrange`` and ``Random._randbelow_with_getrandbits`` (CPython
        3.10 to 3.13), without the two calls' argument checks.
        """
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = n.bit_length()
        r = self.rng.getrandbits(k)
        while r >= n:
            r = self.rng.getrandbits(k)
        return a + r

    # -- scalars -------------------------------------------------------------

    def fraction(self, lo: int | None = None, hi: int | None = None) -> Fraction:
        lo = -MAX_MAGNITUDE if lo is None else lo
        hi = MAX_MAGNITUDE if hi is None else hi
        den = self._randint(1, self.bounds.max_denominator)
        num = self._randint(lo * den, hi * den)
        return Fraction(num, den)

    def positive_slope(self) -> Fraction:
        num = self._randint(1, 12)
        den = self._randint(1, 12)
        return Fraction(num, den)

    def fraction_between(self, lo: Fraction, hi: Fraction) -> Fraction:
        """A rational strictly between lo and hi: ``lo + (hi - lo) * step/den``,
        for an even ``den`` and ``0 < step < den``."""
        den = 2 * self._randint(2, self.bounds.max_denominator)
        step = self._randint(1, den - 1)
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        return Fraction(a * d * den + (c * b - a * d) * step, b * d * den)

    # -- maps ----------------------------------------------------------------

    def plmap(self, max_breakpoints: int | None = None) -> PLMap:
        b = self.bounds
        count = self._randint(0, b.max_breakpoints if max_breakpoints is None else max_breakpoints)
        left = self.positive_slope()
        right = self.positive_slope()
        if count == 0:
            return PLMap.affine(left, self.fraction())
        # Breakpoints x + k/D at distinct integers x, as reduced int pairs,
        # and values y0 + m1/D + ..., as unreduced pairs over y0's
        # denominator times D.
        den = b.max_denominator
        xs = sorted(self.rng.sample(range(-MAX_MAGNITUDE, MAX_MAGNITUDE), count))
        xs = [x * den + self._randint(0, den - 1) for x in xs]
        y = self.fraction()
        yn, yd = y.numerator * den, y.denominator * den
        pts = []
        for i, xn in enumerate(xs):
            if i:
                yn += self._randint(1, 4 * den) * y.denominator
            c = gcd(xn, den)
            pts.append((xn // c, den // c, yn, yd))
        return _canonical(
            pts, left.numerator, left.denominator, right.numerator, right.denominator, None
        )

    def germ(self) -> Germ:
        return Germ(self.positive_slope(), self.fraction())

    def mutate_below(self, f: PLMap, cutoff: Fraction) -> PLMap:
        """A map equal to ``f`` on ``[cutoff, +oo)`` but disturbed below.

        Precomposes with an increasing bump supported in an interval below
        the cutoff, which cannot change anything at or above it.
        """
        width = Fraction(self._randint(1, 8))
        lo = cutoff - 2 * width
        mid_x = self.fraction_between(lo, cutoff)
        mid_y = self.fraction_between(lo, cutoff)
        bump = PLMap.make([(lo, lo), (mid_x, mid_y), (cutoff, cutoff)], 1, 1)
        return f * bump

    # -- words ---------------------------------------------------------------

    def word(self, names: list[str], max_length: int = 8) -> Word:
        length = self._randint(0, max_length)
        letters = []
        for _ in range(length):
            name = self.rng.choice(names)
            exp = self.rng.choice((1, -1))
            letters.append((name, exp))
        return Word(tuple(letters))

    # -- spaces and homeomorphisms --------------------------------------------

    def leafspace(self, max_branches: int = 6) -> LeafSpace:
        count = self._randint(1, max_branches)
        names = [f"b{i}" for i in range(count)]
        branches: dict[str, tuple[str | None, Fraction | None]] = {names[0]: (None, None)}
        for i in range(1, count):
            parent = names[self.rng.randrange(i)]
            branches[names[i]] = (parent, self.fraction())
        side = self.rng.choice((Side.NEGATIVE, Side.POSITIVE))
        return LeafSpace.build(side, branches)

    def interior_point(self, space: LeafSpace) -> Point:
        """A canonical point strictly below its branch's departure."""
        name = self.rng.choice(sorted(space.branches))
        dep = space.departure(name)
        base = Fraction(0) if dep is None else dep
        return Point(name, base - 1 - abs(self.fraction(lo=0, hi=5)))

    def _pl_fixing(self, fixed: list[Fraction], left: Fraction, right: Fraction) -> PLMap:
        """Random increasing PL map fixing each coordinate in ``fixed``."""
        pts: list[tuple[Fraction, Fraction]] = []
        fixed = sorted(set(fixed))
        for a, b in zip(fixed, fixed[1:]):
            pts.append((a, a))
            if self.rng.random() < 0.7:
                x = self.fraction_between(a, b)
                y = self.fraction_between(a, b)
                pts.append((x, y))
        pts.append((fixed[-1], fixed[-1]))
        return PLMap.make(pts, left, right)

    def swap_pair(self) -> tuple[LeafSpace, Homeo, Fraction]:
        """A space with a line swap of finite overlap threshold.

        The root line and a branch line departing at ``d`` carry mirrored
        sub-branches at matching departures below ``d``, so exchanging the
        two lines (identity in coordinates) is a homeomorphism.  It fixes
        everything above ``d`` and nothing on the lower rays, making ``d``
        the least coordinate beyond which the root chart returns to itself.
        Returns ``(space, swap, d)``.
        """
        d = self.fraction()
        branches: dict[str, tuple[str | None, Fraction | None]] = {
            "r": (None, None),
            "b": ("r", d),
        }
        branch_map = {"r": "b", "b": "r"}
        for i in range(self._randint(0, 3)):
            dep = d - 1 - abs(self.fraction(lo=0, hi=5))
            branches[f"m{i}"] = ("r", dep)
            branches[f"w{i}"] = ("b", dep)
            branch_map[f"m{i}"] = f"w{i}"
            branch_map[f"w{i}"] = f"m{i}"
        space = LeafSpace.build(Side.NEGATIVE, branches)
        ident = PLMap.identity()
        swap = Homeo(branch_map, {name: ident for name in branches})
        return space, swap, d

    def homeo(self, space: LeafSpace) -> Homeo:
        """Random homeomorphism fixing every branch.

        Every chart map fixes every departure coordinate, which keeps the
        branch structure pointwise intact; below its own departure each
        branch wanders independently, and above it it copies its parent.
        """
        departures = space._departures or [Fraction(0)]
        order = sorted(space.branches, key=lambda b: len(space.chain_to_root(b)))
        branch_pl: dict[str, PLMap] = {}
        for name in order:
            parent = space.parent(name)
            if parent is None:
                branch_pl[name] = self._pl_fixing(
                    departures, self.positive_slope(), self.positive_slope()
                )
            else:
                dep = space.departure(name)
                anchors = sorted({dep, *(d for d in departures if d < dep)})
                lower = self._pl_fixing(anchors, self.positive_slope(), Fraction(1))
                branch_pl[name] = _splice(lower, branch_pl[parent], dep)
        return Homeo({b: b for b in space.branches}, branch_pl)
