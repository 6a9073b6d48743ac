"""Seeded random generators for maps, words, homeomorphisms and spaces.

Everything is driven by a private ``random.Random`` instance, so a given
``(seed, bounds)`` pair always produces the same stream, and every generated
object satisfies its validator by construction.  Magnitudes are kept small
(breakpoints within +-50, denominators bounded) so that downstream ray scans
stay far below the probe coordinates used by the witness suites.

Map draws are integer pairs end to end.  The private pair draws
``_fraction_pair``, ``_slope_pair`` and ``_between_pair`` return reduced
``(n, d)`` pairs, and ``plmap``, ``mutate_below``, ``_pl_fixing`` and
``homeo`` hand their points, slopes and offsets to ``plmap._canonical`` as
ints, so no ``Fraction`` is built between the generator and a map.  The
public ``fraction``, ``positive_slope`` and ``fraction_between`` are
``Fraction(*pair)`` of the same draws.
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

    def _fraction_pair(self, lo: int | None = None, hi: int | None = None) -> tuple[int, int]:
        """A reduced pair ``(n, d)`` in ``[lo, hi]``, ``d`` at most the
        bounds' denominator."""
        lo = -MAX_MAGNITUDE if lo is None else lo
        hi = MAX_MAGNITUDE if hi is None else hi
        den = self._randint(1, self.bounds.max_denominator)
        num = self._randint(lo * den, hi * den)
        c = gcd(num, den)
        return num // c, den // c

    def _slope_pair(self) -> tuple[int, int]:
        """A reduced positive pair ``(n, d)``, each of ``n`` and ``d`` drawn in
        ``[1, 12]`` before reduction."""
        num = self._randint(1, 12)
        den = self._randint(1, 12)
        c = gcd(num, den)
        return num // c, den // c

    def _between_pair(self, a: int, b: int, c: int) -> tuple[int, int]:
        """A reduced pair strictly between ``a/b`` and ``c/b``, for ``b > 0``
        and ``a < c``: ``a/b + (c - a)/b * step/den``, for an even ``den``
        and ``0 < step < den``."""
        den = 2 * self._randint(2, self.bounds.max_denominator)
        step = self._randint(1, den - 1)
        n, d = a * den + (c - a) * step, b * den
        g = gcd(n, d)
        return n // g, d // g

    def fraction(self, lo: int | None = None, hi: int | None = None) -> Fraction:
        return Fraction(*self._fraction_pair(lo, hi))

    def positive_slope(self) -> Fraction:
        return Fraction(*self._slope_pair())

    def fraction_between(self, lo: Fraction, hi: Fraction) -> Fraction:
        """A rational strictly between lo and hi, by :meth:`_between_pair`
        over the common denominator of the two."""
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        return Fraction(*self._between_pair(a * d, b * d, c * b))

    # -- maps ----------------------------------------------------------------

    def plmap(self, max_breakpoints: int | None = None) -> PLMap:
        b = self.bounds
        count = self._randint(0, b.max_breakpoints if max_breakpoints is None else max_breakpoints)
        left = self._slope_pair()
        right = self._slope_pair()
        if count == 0:
            return _canonical([], *left, *left, self._fraction_pair())
        # Breakpoints x + k/D at distinct integers x, as reduced int pairs,
        # and values y0 + m1/D + ..., as unreduced pairs over y0's
        # denominator times D.
        den = b.max_denominator
        xs = sorted(self.rng.sample(range(-MAX_MAGNITUDE, MAX_MAGNITUDE), count))
        xs = [x * den + self._randint(0, den - 1) for x in xs]
        y0n, y0d = self._fraction_pair()
        yn, yd = y0n * den, y0d * den
        pts = []
        for i, xn in enumerate(xs):
            if i:
                yn += self._randint(1, 4 * den) * y0d
            c = gcd(xn, den)
            pts.append((xn // c, den // c, yn, yd))
        return _canonical(pts, *left, *right, None)

    def germ(self) -> Germ:
        return Germ(self.positive_slope(), self.fraction())

    def mutate_below(self, f: PLMap, cutoff: Fraction) -> PLMap:
        """A map equal to ``f`` on ``[cutoff, +oo)`` but disturbed below.

        Precomposes with an increasing bump supported in an interval below
        the cutoff, which cannot change anything at or above it.  The bump
        fixes ``lo = cutoff - 2w`` and the cutoff, for an integer ``w``, so
        ``lo``'s pair over the cutoff's denominator is already reduced.
        """
        cn, cd = cutoff.numerator, cutoff.denominator
        ln = cn - 2 * self._randint(1, 8) * cd
        xn, xd = self._between_pair(ln, cd, cn)
        yn, yd = self._between_pair(ln, cd, cn)
        bump = _canonical([(ln, cd, ln, cd), (xn, xd, yn, yd), (cn, cd, cn, cd)], 1, 1, 1, 1, None)
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

    def _pl_fixing(
        self, fixed: list[tuple[int, int]], left: tuple[int, int], right: tuple[int, int]
    ) -> PLMap:
        """Random increasing PL map fixing each coordinate in ``fixed``, a
        strictly increasing list of reduced pairs, with the tail slopes
        ``left`` and ``right`` as pairs."""
        pts: list[tuple[int, int, int, int]] = []
        for (an, ad), (bn, bd) in zip(fixed, fixed[1:]):
            pts.append((an, ad, an, ad))
            if self.rng.random() < 0.7:
                a, b, c = an * bd, ad * bd, bn * ad
                x = self._between_pair(a, b, c)
                y = self._between_pair(a, b, c)
                pts.append((*x, *y))
        n, d = fixed[-1]
        pts.append((n, d, n, d))
        return _canonical(pts, *left, *right, None)

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
        departures = [(d.numerator, d.denominator) for d in space._departures] or [(0, 1)]
        order = sorted(space.branches, key=lambda b: len(space.chain_to_root(b)))
        branch_pl: dict[str, PLMap] = {}
        for name in order:
            parent = space.parent(name)
            if parent is None:
                left, right = self._slope_pair(), self._slope_pair()
                branch_pl[name] = self._pl_fixing(departures, left, right)
            else:
                # the departures are sorted and distinct, and include dep
                dep = space.departure(name)
                anchors = departures[: departures.index((dep.numerator, dep.denominator)) + 1]
                lower = self._pl_fixing(anchors, self._slope_pair(), (1, 1))
                branch_pl[name] = _splice(lower, branch_pl[parent], dep)
        return Homeo({b: b for b in space.branches}, branch_pl)
