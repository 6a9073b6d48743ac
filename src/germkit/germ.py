"""The group of germs at +infinity of piecewise-linear line maps.

Two increasing PL maps with finitely many breakpoints agree on some ray
``[n, +oo)`` exactly when their affine tails coincide, so the germ of a map
is faithfully represented by the tail pair ``(slope, offset)``.  Germs
multiply by composition of representatives:

    (a1, b1) * (a2, b2) == (a1*a2, a1*b2 + b1)

and carry the left-invariant total order whose positive cone consists of the
germs that are eventually above the diagonal: ``(a, b)`` is positive iff
``a > 1`` or (``a == 1`` and ``b > 0``).

A germ holds its slope and offset as reduced int pairs, and ``*``, ``~``,
``==``, ``hash``, :meth:`Germ.is_positive` and :func:`compare` run on them
with no ``Fraction``.  ``.slope`` and ``.offset`` are read-only
``Fraction``s: the ones given to ``Germ(...)``, or else built on the first
read and kept.  :meth:`Germ.of` reads a map's tail off its integer record,
so it builds none either.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd

from .plmap import PLMap, RationalLike, _frac
from .rationals import format_rational


class OrderSign(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


class Germ:
    """Eventual-agreement class of an increasing PL map, as its affine tail."""

    __slots__ = ("_sn", "_sd", "_on", "_od", "_slope", "_offset")

    def __init__(self, slope: RationalLike, offset: RationalLike):
        slope, offset = _frac(slope), _frac(offset)
        if slope.numerator <= 0:
            raise ValueError("germ slope must be positive")
        self._sn, self._sd, self._slope = slope.numerator, slope.denominator, slope
        self._on, self._od, self._offset = offset.numerator, offset.denominator, offset

    @classmethod
    def _of(cls, sn: int, sd: int, on: int, od: int) -> "Germ":
        """The germ ``(sn/sd, on/od)``, reduced, for ``sn > 0`` and positive
        denominators, without the checks of ``Germ(...)``."""
        g, h = gcd(sn, sd), gcd(on, od)
        u = object.__new__(cls)
        u._sn, u._sd, u._on, u._od = sn // g, sd // g, on // h, od // h
        u._slope = u._offset = None
        return u

    @classmethod
    def of(cls, f: PLMap) -> "Germ":
        """Germ of a map: its affine tail, read off the map's integer record,
        so no ``Fraction`` is built."""
        return cls._of(*f._tail())

    @classmethod
    def identity(cls) -> "Germ":
        return cls._of(1, 1, 0, 1)

    @property
    def slope(self) -> Fraction:
        slope = self._slope
        if slope is None:
            slope = self._slope = Fraction(self._sn, self._sd)
        return slope

    @property
    def offset(self) -> Fraction:
        offset = self._offset
        if offset is None:
            offset = self._offset = Fraction(self._on, self._od)
        return offset

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._sn == other._sn and self._sd == other._sd
            and self._on == other._on and self._od == other._od
        )

    def __hash__(self) -> int:
        return hash((self._sn, self._sd, self._on, self._od))

    def __mul__(self, other: "Germ") -> "Germ":
        """``(p1/q1, r1/s1) * (p2/q2, r2/s2)``: the slope ``p1*p2 / (q1*q2)``
        and the offset ``p1/q1 * r2/s2 + r1/s1``."""
        if not isinstance(other, Germ):
            return NotImplemented
        p1, q1, r1, s1 = self._sn, self._sd, self._on, self._od
        p2, q2, r2, s2 = other._sn, other._sd, other._on, other._od
        return Germ._of(p1 * p2, q1 * q2, p1 * r2 * s1 + r1 * q1 * s2, q1 * s2 * s1)

    def __invert__(self) -> "Germ":
        """``~(p/q, r/s) == (q/p, -(r*q) / (s*p))``, with ``p > 0``."""
        return Germ._of(self._sd, self._sn, -self._on * self._sd, self._od * self._sn)

    def is_identity(self) -> bool:
        return self._sn == self._sd and self._on == 0

    def is_positive(self) -> bool:
        """Membership in the positive cone (eventually above the diagonal)."""
        p, q = self._sn, self._sd
        if p == q:  # slope 1, in lowest terms
            return self._on > 0
        return p > q

    def representative(self) -> PLMap:
        """The affine map with this germ (the canonical representative)."""
        return PLMap.affine(self.slope, self.offset)

    def __repr__(self) -> str:
        return f"Germ({format_rational(self.slope)}, {format_rational(self.offset)})"


def compare(u: Germ, v: Germ) -> OrderSign:
    """Left-invariant total order: ``u < v`` iff ``~u * v`` is positive."""
    if u == v:
        return OrderSign.EQ
    return OrderSign.LT if (~u * v).is_positive() else OrderSign.GT


def eventual_comparison_bound(u: Germ) -> Fraction:
    """A point beyond which a representative of ``u`` stays on one side of
    the diagonal: past this, ``f(x) - x`` has constant sign (or is zero)."""
    if u._sn == u._sd:
        return Fraction(0)
    return Fraction(abs(u._on * u._sd), abs(u._od * (u._sd - u._sn)))
