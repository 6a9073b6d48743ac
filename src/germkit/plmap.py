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

Evaluation runs on Python ints.  On its first evaluation a map builds an
integer kernel, one flat tuple kept in a slot: first ``p, q`` for each
breakpoint ``p/q``, then ``A, B, D`` for each piece (left tail, interior
pieces, right tail), so that ``y = (A*n + B*d)/(D*d)`` at ``x = n/d``.  A
call finds its piece by integer cross-multiplication and builds one
``Fraction``; :meth:`PLMap.preimage` inverts the same piece,
``x = (D*n - B*d)/(A*d)`` at ``y = n/d``, without building ``~f``.  The
``Fraction`` fields stay the canonical data: the kernel takes no part in
``==``, ``hash`` or ``repr``, and every public value is a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable

from .rationals import format_rational, parse_rational

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
        return parse_rational(x)
    raise TypeError(f"expected a Fraction, int or str, got {x!r}")


@dataclass(frozen=True, slots=True)
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
    _kernel: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)

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

    def _build_kernel(self) -> tuple[int, ...]:
        """Build, store and return the integer kernel (see the module docstring)."""
        marks = [
            (x.numerator, x.denominator, y.numerator, y.denominator)
            for x, y in zip(self.breakpoints, self.values)
        ]
        # Each piece as its slope an/ad and one point p/q -> r/s of its line.
        ls, rs, b = self.left_slope, self.right_slope, self.tail_offset
        pieces = [(ls.numerator, ls.denominator, *marks[0])] if marks else []
        for (p0, q0, r0, s0), (p1, q1, r1, s1) in zip(marks, marks[1:]):
            an, ad = (r1 * s0 - r0 * s1) * q0 * q1, (p1 * q0 - p0 * q1) * s0 * s1
            pieces.append((an, ad, p0, q0, r0, s0))
        pieces.append((rs.numerator, rs.denominator, 0, 1, b.numerator, b.denominator))
        kernel = [v for p, q, _, _ in marks for v in (p, q)]
        for an, ad, p, q, r, s in pieces:
            A, B, D = an * s * q, r * ad * q - an * s * p, ad * s * q
            g = gcd(A, B, D)
            kernel += (A // g, B // g, D // g)
        kernel = tuple(kernel)
        object.__setattr__(self, "_kernel", kernel)
        return kernel

    def __call__(self, x: RationalLike) -> Fraction:
        x = _frac(x)
        kernel = self._kernel
        if kernel is None:
            kernel = self._build_kernel()
        n, d = x.numerator, x.denominator
        i, j = 0, 2 * len(self.breakpoints)
        while i < j and n * kernel[i + 1] >= kernel[i] * d:
            i += 2
        j += 3 * (i >> 1)
        return Fraction(kernel[j] * n + kernel[j + 1] * d, kernel[j + 2] * d)

    def preimage(self, y: RationalLike) -> Fraction:
        """``(~self)(y)``, read off the kernel without building the inverse."""
        y = _frac(y)
        kernel = self._kernel
        if kernel is None:
            kernel = self._build_kernel()
        n, d = y.numerator, y.denominator
        # Breakpoint p/q ends the piece A, B, D, whose value there is
        # (A*p + B*q)/(D*q); step past it while y is at least that value.
        end = 2 * len(self.breakpoints)
        i, j = 0, end
        while i < end:
            p, q, A, B, D = kernel[i], kernel[i + 1], kernel[j], kernel[j + 1], kernel[j + 2]
            if n * D * q < (A * p + B * q) * d:
                break
            i, j = i + 2, j + 3
        return Fraction(kernel[j + 2] * n - kernel[j + 1] * d, kernel[j] * d)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "PLMap") -> "PLMap":
        """Composition ``self after other``."""
        if not isinstance(other, PLMap):
            return NotImplemented
        xs = sorted({*other.breakpoints, *map(other.preimage, self.breakpoints)})
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


def reflect(f: PLMap) -> PLMap:
    """``x -> -f(-x)``: ``f`` read in the reversed coordinate ``-x``."""
    points = [(-x, -y) for x, y in zip(reversed(f.breakpoints), reversed(f.values))]
    offset = None if points else -f.tail_offset
    return PLMap.make(points, f.right_slope, f.left_slope, offset=offset)


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
