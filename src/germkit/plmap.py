"""Orientation-preserving piecewise-linear homeomorphisms of the line.

A :class:`PLMap` is determined by a strictly increasing list of breakpoints,
their (strictly increasing) images, and the two tail slopes.  All data are
exact rationals and every segment slope is strictly positive, so each map is
an increasing bijection of the rational line that extends to a homeomorphism
of the reals.

Maps are kept in canonical form: no breakpoint survives at which the incoming
and outgoing slopes agree, and a map with no breakpoints stores the affine
tail ``x -> right_slope * x + tail_offset`` that then holds everywhere.  Two
canonical maps are equal as functions iff they are equal as values, so ``==``
is both cheap and meaningful.

Composition is written multiplicatively, ``f * g == f after g``, and ``~f``
is the inverse, following the usual convention for transformation groups.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .rationals import format_rational

RationalLike = Fraction | int | str


class InvalidMapError(ValueError):
    """Data does not describe an increasing piecewise-linear homeomorphism."""


def _frac(x: RationalLike) -> Fraction:
    """Exact rational from a ``Fraction``, an ``int`` or a ``"p/q"`` string.

    A ``Fraction`` is returned unchanged (the hot path); floats and every
    other type raise, so no inexact value enters a map.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if isinstance(x, str):
        from .rationals import parse_rational

        return parse_rational(x)
    raise TypeError(f"expected a Fraction, int or str, got {x!r}")


@dataclass(frozen=True)
class PLMap:
    """Increasing piecewise-linear bijection of the line.

    Instances built through :meth:`make`, :meth:`affine` or :meth:`identity`
    are validated and canonical.  The bare constructor performs no checks;
    :func:`check` reports what is wrong with a raw instance.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    left_slope: Fraction
    right_slope: Fraction
    tail_offset: Fraction

    # -- construction ------------------------------------------------------

    @classmethod
    def make(
        cls,
        points: Iterable[tuple[RationalLike, RationalLike]],
        left_slope: RationalLike,
        right_slope: RationalLike,
        offset: RationalLike | None = None,
    ) -> "PLMap":
        """Build and canonicalize a map from breakpoint/value pairs.

        ``offset`` is required for maps with no breakpoints (it anchors the
        affine map); when breakpoints are present it is optional but must
        agree with ``values[-1] - right_slope * breakpoints[-1]``.
        """
        pts = [(_frac(x), _frac(y)) for x, y in points]
        ls, rs = _frac(left_slope), _frac(right_slope)
        if ls <= 0 or rs <= 0:
            raise InvalidMapError("tail slopes must be positive")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 >= x1:
                raise InvalidMapError(f"breakpoints not strictly increasing at {format_rational(x1)}")
            if y0 >= y1:
                raise InvalidMapError(f"values not strictly increasing at {format_rational(x1)}")
        if not pts:
            if offset is None:
                raise InvalidMapError("an affine map needs an explicit offset")
            if ls != rs:
                raise InvalidMapError("map without breakpoints must have equal tail slopes")
            return cls((), (), ls, rs, _frac(offset))
        tail = pts[-1][1] - rs * pts[-1][0]
        if offset is not None and _frac(offset) != tail:
            raise InvalidMapError(
                f"offset {format_rational(_frac(offset))} inconsistent with tail "
                f"{format_rational(tail)}"
            )
        # Drop breakpoints where incoming and outgoing slopes agree.  Slopes
        # between original neighbours are unchanged by earlier removals, so a
        # single pass suffices.
        slopes = [ls]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            slopes.append((y1 - y0) / (x1 - x0))
        slopes.append(rs)
        kept = [pt for i, pt in enumerate(pts) if slopes[i] != slopes[i + 1]]
        if not kept:
            return cls((), (), ls, rs, tail)
        xs, ys = zip(*kept)
        return cls(tuple(xs), tuple(ys), ls, rs, ys[-1] - rs * xs[-1])

    @classmethod
    def affine(cls, slope: RationalLike, offset: RationalLike) -> "PLMap":
        slope, offset = _frac(slope), _frac(offset)
        if slope <= 0:
            raise InvalidMapError("slope must be positive")
        return cls((), (), slope, slope, offset)

    @classmethod
    def identity(cls) -> "PLMap":
        return cls.affine(1, 0)

    # -- evaluation --------------------------------------------------------

    def __call__(self, x: RationalLike) -> Fraction:
        x = _frac(x)
        bps = self.breakpoints
        if not bps:
            return self.right_slope * x + self.tail_offset
        if x >= bps[-1]:
            return self.right_slope * x + self.tail_offset
        if x <= bps[0]:
            return self.values[0] + self.left_slope * (x - bps[0])
        i = bisect_right(bps, x) - 1
        x0, x1 = bps[i], bps[i + 1]
        y0, y1 = self.values[i], self.values[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "PLMap") -> "PLMap":
        """Composition ``self after other``."""
        if not isinstance(other, PLMap):
            return NotImplemented
        inv = ~other
        xs = sorted({*other.breakpoints, *(inv(b) for b in self.breakpoints)})
        pts = [(x, self(other(x))) for x in xs]
        ls = self.left_slope * other.left_slope
        rs = self.right_slope * other.right_slope
        if not pts:
            return PLMap.make((), ls, rs, offset=self(other(Fraction(0))))
        return PLMap.make(pts, ls, rs)

    def __invert__(self) -> "PLMap":
        if not self.breakpoints:
            a, b = self.right_slope, self.tail_offset
            return PLMap.affine(1 / a, -b / a)
        pts = [(y, x) for x, y in zip(self.breakpoints, self.values)]
        return PLMap.make(pts, 1 / self.left_slope, 1 / self.right_slope)

    # -- structure ---------------------------------------------------------

    def is_identity(self) -> bool:
        return not self.breakpoints and self.right_slope == 1 and self.tail_offset == 0

    def __repr__(self) -> str:
        pts = ", ".join(
            f"({format_rational(x)},{format_rational(y)})"
            for x, y in zip(self.breakpoints, self.values)
        )
        return (
            f"PLMap([{pts}], left={format_rational(self.left_slope)}, "
            f"right={format_rational(self.right_slope)}, "
            f"offset={format_rational(self.tail_offset)})"
        )


def normalize(f: PLMap) -> PLMap:
    """Return the canonical form of a structurally well-formed map.

    Rejects non-monotone data and non-positive slopes; on canonical input
    this is the identity, so it is idempotent.
    """
    if not f.breakpoints:
        return PLMap.make((), f.left_slope, f.right_slope, offset=f.tail_offset)
    g = PLMap.make(zip(f.breakpoints, f.values), f.left_slope, f.right_slope)
    if f.tail_offset != g.tail_offset:
        raise InvalidMapError("stored tail offset inconsistent with breakpoint data")
    return g


def check(f: PLMap) -> str | None:
    """Validate a raw instance; return a description of the first problem."""
    try:
        g = normalize(f)
    except (InvalidMapError, ZeroDivisionError) as exc:
        return str(exc)
    if g != f:
        return "map is not in canonical form"
    return None


def agree_on_ray(f: PLMap, g: PLMap, start: Fraction) -> bool:
    """Exact test for ``f == g`` on the open ray ``(start, +oo)``.

    Both maps are affine between consecutive breakpoints, so agreement at
    every breakpoint beyond ``start``, at one interior point of the first
    piece, and of the right tails decides equality on the whole ray.
    """
    start = _frac(start)
    marks = sorted({b for b in (*f.breakpoints, *g.breakpoints) if b > start})
    if f.right_slope != g.right_slope:
        return False
    if not marks:
        probe = start + 1
        return f(probe) == g(probe)
    if any(f(b) != g(b) for b in marks):
        return False
    probe = start + (marks[0] - start) / 2
    if f(probe) != g(probe):
        return False
    return f(marks[-1] + 1) == g(marks[-1] + 1)
