"""The group of germs at +infinity of piecewise-linear line maps.

Two increasing PL maps with finitely many breakpoints agree on some ray
``[n, +oo)`` exactly when their affine tails coincide, so the germ of a map
is faithfully represented by the tail pair ``(slope, offset)``.  Germs
multiply by composition of representatives:

    (a1, b1) * (a2, b2) == (a1*a2, a1*b2 + b1)

and carry the left-invariant total order whose positive cone consists of the
germs that are eventually above the diagonal: ``(a, b)`` is positive iff
``a > 1`` or (``a == 1`` and ``b > 0``).

Arithmetic runs on Python ints.  ``*``, ``~`` and :meth:`Germ.is_positive`
read the numerators and denominators of the two ``Fraction`` fields and
compute on them; a product or inverse builds its two fields with one
``Fraction(n, d)`` each and skips the checks of the public constructor,
since products and inverses of positive slopes are positive.
:meth:`Germ.of` keeps a map's ``Fraction`` tail fields and checks only the
slope's sign, and :meth:`Germ.identity` builds its germ directly.  The fields
stay ``Fraction``s, so ``==``, ``hash`` and ``repr`` are unchanged, and
:func:`compare` is still defined as "``~u * v`` is positive".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .plmap import PLMap, _frac
from .rationals import format_rational


class OrderSign(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True)
class Germ:
    """Eventual-agreement class of an increasing PL map, as its affine tail."""

    slope: Fraction
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", _frac(self.slope))
        object.__setattr__(self, "offset", _frac(self.offset))
        if self.slope <= 0:
            raise ValueError("germ slope must be positive")

    @classmethod
    def of(cls, f: PLMap) -> "Germ":
        """Germ of a canonical map: its affine tail.

        A map's ``Fraction`` fields are kept as they are; a raw map whose
        slope is not positive raises as ``Germ(...)`` does.
        """
        slope, offset = f.right_slope, f.tail_offset
        if type(slope) is not Fraction or type(offset) is not Fraction:
            return cls(slope, offset)
        if slope.numerator <= 0:
            raise ValueError("germ slope must be positive")
        return _fields(slope, offset)

    @classmethod
    def identity(cls) -> "Germ":
        return _fields(_ONE, _ZERO)

    def __mul__(self, other: "Germ") -> "Germ":
        """``(p1/q1, r1/s1) * (p2/q2, r2/s2)``: the slope ``p1*p2 / (q1*q2)``
        and the offset ``p1/q1 * r2/s2 + r1/s1``."""
        if not isinstance(other, Germ):
            return NotImplemented
        a1, b1, a2, b2 = self.slope, self.offset, other.slope, other.offset
        p1, q1, r1, s1 = a1.numerator, a1.denominator, b1.numerator, b1.denominator
        p2, q2, r2, s2 = a2.numerator, a2.denominator, b2.numerator, b2.denominator
        return _germ(p1 * p2, q1 * q2, p1 * r2 * s1 + r1 * q1 * s2, q1 * s2 * s1)

    def __invert__(self) -> "Germ":
        """``~(p/q, r/s) == (q/p, -(r*q) / (s*p))``, with ``p > 0``."""
        a, b = self.slope, self.offset
        p, q = a.numerator, a.denominator
        return _germ(q, p, -b.numerator * q, b.denominator * p)

    def is_identity(self) -> bool:
        return self.slope == 1 and self.offset == 0

    def is_positive(self) -> bool:
        """Membership in the positive cone (eventually above the diagonal)."""
        p, q = self.slope.numerator, self.slope.denominator
        if p == q:  # slope 1, in lowest terms
            return self.offset.numerator > 0
        return p > q

    def representative(self) -> PLMap:
        """The affine map with this germ (the canonical representative)."""
        return PLMap.affine(self.slope, self.offset)

    def __repr__(self) -> str:
        return f"Germ({format_rational(self.slope)}, {format_rational(self.offset)})"


def _fields(slope: Fraction, offset: Fraction) -> Germ:
    """The germ with these ``Fraction`` fields, for a positive slope, without
    the checks of ``Germ(...)``."""
    g = object.__new__(Germ)
    fields = g.__dict__
    fields["slope"] = slope
    fields["offset"] = offset
    return g


def _germ(sn: int, sd: int, on: int, od: int) -> Germ:
    """The germ ``(sn/sd, on/od)``, for a positive slope and positive
    denominators, without the checks of ``Germ(...)``."""
    return _fields(Fraction(sn, sd), Fraction(on, od))


_ONE, _ZERO = Fraction(1), Fraction(0)


def compare(u: Germ, v: Germ) -> OrderSign:
    """Left-invariant total order: ``u < v`` iff ``~u * v`` is positive."""
    if u == v:
        return OrderSign.EQ
    return OrderSign.LT if (~u * v).is_positive() else OrderSign.GT


def eventual_comparison_bound(u: Germ) -> Fraction:
    """A point beyond which a representative of ``u`` stays on one side of
    the diagonal: past this, ``f(x) - x`` has constant sign (or is zero)."""
    if u.slope == 1:
        return Fraction(0)
    return abs(u.offset / (1 - u.slope))
