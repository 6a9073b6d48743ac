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

A map holds its data as one integer record: a ``(xn, xd, yn, yd)`` tuple
for each breakpoint ``xn/xd -> yn/yd``, and the pairs of the left slope,
the right slope and the tail offset, every pair reduced with a positive
denominator.  Every map is validated and canonical.  The constructor
``PLMap(...)`` takes a canonical map's five fields and raises
:class:`InvalidMapError` with :func:`check`'s message on any other data;
:meth:`PLMap.make` canonicalizes.  Every map that ``make``, ``*``, ``~``,
:func:`reflect`, :meth:`PLMap.affine` or :meth:`PLMap.identity` returns is
built from such a record, by :func:`_canonical`, by ``*`` itself or, for an
affine map, directly, and its ``Fraction`` fields ``breakpoints``,
``values``, ``left_slope``, ``right_slope`` and ``tail_offset`` are built on
the first read of any of them and then kept.  ``==`` and ``hash`` read the
record, and ``repr`` the fields.

Evaluation runs on Python ints.  A map holds an integer kernel, one flat
tuple kept in a slot, which a composite gets from ``*`` and every other map
builds from its record on its first evaluation: first
``p, q`` for each breakpoint ``p/q``, then ``A, B, D`` for each piece (left
tail, interior pieces, right tail), so that ``y = (A*n + B*d)/(D*d)`` at
``x = n/d``.

The integer entry :meth:`PLMap._eval` takes ``(n, d)`` with ``d > 0``,
finds the piece by integer cross-multiplication and returns the pair
``(A*n + B*d, D*d)``, unreduced.  A call is that entry plus one
``Fraction``.  The action layer calls the entry directly on integer pairs
and builds no ``Fraction`` at all (see :func:`germkit.action._apply_pairs`
and :func:`germkit.action._line_image`).
:meth:`PLMap.preimage` inverts the same piece, ``x = (D*n - B*d)/(A*d)`` at
``y = n/d``, without building ``~f``.

Composition and canonicalization run on ints too.  ``f * g`` composes piece
by piece.  It takes ``g``'s breakpoints and the preimages of ``f``'s
breakpoints under ``g`` as reduced ``(n, d)`` pairs and merges the two
increasing lists by cross-multiplication.  Below the first point, and from
each point to the next, the composite is one of ``f``'s pieces after one of
``g``'s, and its triple is the product ``(A*A', A*B' + B*D', D*D')`` of
their triples, reduced by one ``gcd``.  A point is kept exactly where that
triple changes, and its value is the new triple read there.  This is
canonical form: the composite is continuous, so two pieces that meet at a
point with the same slope lie on one line, and a line has one reduced
triple with ``D > 0``; so the triple changes exactly where the slope does.
The record and the kernel come out of this one loop, so a composite is
never canonicalized and never builds its kernel.  One canonicalizer,
:func:`_canonical`, takes integer points: it checks that tail slopes
are positive and that breakpoints and values strictly increase, drops each
point whose two slopes ``a/d`` and ``a'/d'`` agree (``a*d' == a'*d``), and
reduces the value of each point it keeps with one ``gcd``.  :meth:`make`
converts its input once and calls it; ``~``, :func:`reflect` and
:func:`_splice` call it on records, and ``germkit.fuzz``'s map draws on
the integer pairs they draw.  :func:`check`, which
``action.validate_homeo`` runs on every chart map of a homeo it checks,
applies the rules of :func:`_scan` to a composite's record on its own, so
the triple rule's output is still checked independently.  It and
:func:`agree_on_ray` read the record or the kernel, and other modules read
ints through ``_eval``, ``preimage``, ``_tail`` and ``_breaks``, so no map
built on this route builds a ``Fraction`` field unless one is read.  Only
this module knows the record's layout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .rationals import format_rational, parse_rational

RationalLike = Fraction | int | str
Record = tuple[tuple[tuple[int, int, int, int], ...], int, int, int, int, int, int]


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


def _int_points(
    points: Iterable[tuple[RationalLike, RationalLike]],
) -> list[tuple[int, int, int, int]]:
    """Each pair ``(x, y)``, read with :func:`_frac`, as ``(xn, xd, yn, yd)``."""
    pts = []
    for x, y in points:
        x, y = _frac(x), _frac(y)
        pts.append((x.numerator, x.denominator, y.numerator, y.denominator))
    return pts


def _field(name: str) -> property:
    """A read-only ``Fraction`` field, built from the record on first read."""
    slot = "_" + name

    def read(self: "PLMap"):
        try:
            return getattr(self, slot)
        except AttributeError:
            self._build_fields()
            return getattr(self, slot)

    return property(read)


class PLMap:
    """Increasing piecewise-linear bijection of the line.

    Every instance is validated and canonical, and holds the integer record
    of the module docstring.
    """

    __slots__ = (
        "_breakpoints", "_values", "_left_slope", "_right_slope", "_tail_offset",
        "_pairs", "_lsn", "_lsd", "_rsn", "_rsd", "_ton", "_tod", "_kernel",
    )

    def __init__(
        self,
        breakpoints: Iterable[RationalLike],
        values: Iterable[RationalLike],
        left_slope: RationalLike,
        right_slope: RationalLike,
        tail_offset: RationalLike | None,
    ):
        """The map with these fields, which must be canonical.

        Each field is read with :func:`_frac`, as :meth:`make` reads its
        arguments.  Data that break a rule of :func:`check`, or are not
        canonical, raise :class:`InvalidMapError` with its message; nothing
        is canonicalized.  Breakpoints and values are paired in order, and
        breakpoints with no values give no offset to an affine map.
        """
        bps, vals = tuple(map(_frac, breakpoints)), tuple(map(_frac, values))
        ls, rs = _frac(left_slope), _frac(right_slope)
        b = None if tail_offset is None else _frac(tail_offset)
        offset = None if b is None else (b.numerator, b.denominator)
        pairs = tuple(_int_points(zip(bps, vals)))
        lsn, lsd, rsn, rsd = ls.numerator, ls.denominator, rs.numerator, rs.denominator
        problem = _problem(pairs, lsn, lsd, rsn, rsd, None if bps and not vals else offset)
        if problem is None and len(bps) != len(vals):
            problem = "map is not in canonical form"
        if problem is not None:
            raise InvalidMapError(problem)
        self._pairs, self._kernel = pairs, None
        self._lsn, self._lsd, self._rsn, self._rsd = lsn, lsd, rsn, rsd
        self._ton, self._tod = offset

    breakpoints = _field("breakpoints")
    values = _field("values")
    left_slope = _field("left_slope")
    right_slope = _field("right_slope")
    tail_offset = _field("tail_offset")

    @classmethod
    def _of(
        cls,
        pairs: tuple[tuple[int, int, int, int], ...],
        lsn: int, lsd: int, rsn: int, rsd: int, ton: int, tod: int,
    ) -> "PLMap":
        """The map with this integer record, which must be reduced and
        canonical; no check is made and no ``Fraction`` is built."""
        f = object.__new__(cls)
        f._pairs, f._kernel = pairs, None
        f._lsn, f._lsd, f._rsn, f._rsd, f._ton, f._tod = lsn, lsd, rsn, rsd, ton, tod
        return f

    def _build_fields(self) -> None:
        """Build and keep the five ``Fraction`` fields from the record."""
        self._breakpoints = tuple(Fraction(xn, xd) for xn, xd, _, _ in self._pairs)
        self._values = tuple(Fraction(yn, yd) for _, _, yn, yd in self._pairs)
        self._left_slope = Fraction(self._lsn, self._lsd)
        self._right_slope = Fraction(self._rsn, self._rsd)
        self._tail_offset = Fraction(self._ton, self._tod)

    def _record(self) -> Record:
        """The integer record ``(pairs, lsn, lsd, rsn, rsd, ton, tod)``."""
        return self._pairs, self._lsn, self._lsd, self._rsn, self._rsd, self._ton, self._tod

    def _tail(self) -> tuple[int, int, int, int]:
        """The right slope and the tail offset, ``(sn, sd, on, od)``, read
        off the record as reduced int pairs."""
        _, _, _, sn, sd, on, od = self._record()
        return sn, sd, on, od

    def _breaks(self) -> list[tuple[int, int]]:
        """Each breakpoint as a reduced int pair ``(n, d)``, read off the record."""
        return [(xn, xd) for xn, xd, _, _ in self._record()[0]]

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
        pts = _int_points(points)
        ls, rs = _frac(left_slope), _frac(right_slope)
        if offset is not None:
            offset = _frac(offset)
            offset = offset.numerator, offset.denominator
        return _canonical(pts, ls.numerator, ls.denominator, rs.numerator, rs.denominator, offset)

    @classmethod
    def affine(cls, slope: RationalLike, offset: RationalLike) -> "PLMap":
        slope, offset = _frac(slope), _frac(offset)
        if slope.numerator <= 0:
            raise InvalidMapError("slope must be positive")
        n, d = slope.numerator, slope.denominator
        return cls._of((), n, d, n, d, offset.numerator, offset.denominator)

    @classmethod
    def identity(cls) -> "PLMap":
        return cls._of((), 1, 1, 1, 1, 0, 1)

    # -- evaluation --------------------------------------------------------

    def _build_kernel(self) -> tuple[int, ...]:
        """Build, store and return the integer kernel (see the module
        docstring)."""
        marks, lsn, lsd, rsn, rsd, ton, tod = self._record()
        # Each piece as its slope an/ad and one point p/q -> r/s of its line.
        pieces = [(lsn, lsd, *marks[0])] if marks else []
        for (p0, q0, r0, s0), (p1, q1, r1, s1) in zip(marks, marks[1:]):
            an, ad = (r1 * s0 - r0 * s1) * q0 * q1, (p1 * q0 - p0 * q1) * s0 * s1
            pieces.append((an, ad, p0, q0, r0, s0))
        pieces.append((rsn, rsd, 0, 1, ton, tod))
        kernel = [v for p, q, _, _ in marks for v in (p, q)]
        for an, ad, p, q, r, s in pieces:
            A, B, D = an * s * q, r * ad * q - an * s * p, ad * s * q
            g = gcd(A, B, D)
            kernel += (A // g, B // g, D // g)
        kernel = self._kernel = tuple(kernel)
        return kernel

    def _eval(self, n: int, d: int) -> tuple[int, int]:
        """The integer entry: ``self(n/d)`` as a pair ``(n', d')`` with
        ``d' > 0``, not necessarily reduced, for any ``n/d`` with ``d > 0``."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._build_kernel()
        i, j = 0, 2 * len(self._pairs)
        while i < j and n * kernel[i + 1] >= kernel[i] * d:
            i += 2
        j += 3 * (i >> 1)
        return kernel[j] * n + kernel[j + 1] * d, kernel[j + 2] * d

    def __call__(self, x: RationalLike) -> Fraction:
        x = _frac(x)
        n, d = self._eval(x.numerator, x.denominator)
        return Fraction(n, d)

    def _preimage(self, n: int, d: int) -> tuple[int, int]:
        """The integer entry of :meth:`preimage`: ``(~self)(n/d)`` as a pair
        ``(n', d')`` with ``d' > 0``, not necessarily reduced, for any
        ``n/d`` with ``d > 0``; the inverse is not built."""
        kernel = self._kernel
        if kernel is None:
            kernel = self._build_kernel()
        # Breakpoint p/q ends the piece A, B, D, whose value there is
        # (A*p + B*q)/(D*q); step past it while y is at least that value.
        end = 2 * len(self._pairs)
        i, j = 0, end
        while i < end:
            p, q, A, B, D = kernel[i], kernel[i + 1], kernel[j], kernel[j + 1], kernel[j + 2]
            if n * D * q < (A * p + B * q) * d:
                break
            i, j = i + 2, j + 3
        pn, pd = kernel[j + 2] * n - kernel[j + 1] * d, kernel[j] * d
        return (pn, pd) if pd > 0 else (-pn, -pd)

    def preimage(self, y: RationalLike) -> Fraction:
        """``(~self)(y)``, read off the kernel without building the inverse;
        :meth:`_preimage` is its integer entry."""
        y = _frac(y)
        return Fraction(*self._preimage(y.numerator, y.denominator))

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "PLMap") -> "PLMap":
        """Composition ``self after other``, piece by piece.

        Between two consecutive points of the merged list (``other``'s
        breakpoints and the preimages of ``self``'s), the composite is
        one piece of ``self`` after one piece of ``other``, so its kernel
        triple is the product ``(A*A', A*B' + B*D', D*D')`` of the two
        triples ``(A, B, D)`` and ``(A', B', D')``, reduced by one ``gcd``.
        A merged point is kept exactly where that reduced triple changes,
        which is where the slope changes, so the record is canonical and the
        kernel is the one :meth:`_build_kernel` would build from it;
        :func:`check` still applies :func:`_scan`'s rules to that record on
        its own.  The rule needs continuous operands with positive slopes,
        which every map is.
        """
        if not isinstance(other, PLMap):
            return NotImplemented
        f = self._kernel or self._build_kernel()
        g = other._kernel or other._build_kernel()
        nf, ng = 2 * len(self._pairs), 2 * len(other._pairs)
        # Preimages of self's breakpoints under other, as in preimage() but
        # walking other's pieces once, since the breakpoints increase.
        pre = []
        i, j = 0, ng
        for k in range(0, nf, 2):
            n, d = f[k], f[k + 1]
            while i < ng:
                p, q, A, B, D = g[i], g[i + 1], g[j], g[j + 1], g[j + 2]
                if n * D * q < (A * p + B * q) * d:
                    break
                i, j = i + 2, j + 3
            xn, xd = g[j + 2] * n - g[j + 1] * d, g[j] * d
            c = gcd(xn, xd)
            pre.append((xn // c, xd // c))
        # The left tails' product, then one product per point of the merge
        # of other's breakpoints with the preimages.  Both lists increase and
        # are reduced, so equal points are equal pairs; a point of other's
        # list steps to other's next piece (j), a preimage to self's (m).
        a, b, e = f[nf], f[nf + 1], f[nf + 2]
        A, B, D = a * g[ng], a * g[ng + 1] + b * g[ng + 2], e * g[ng + 2]
        c = gcd(A, B, D)
        A, B, D = A // c, B // c, D // c
        c = gcd(A, D)
        lsn, lsd = A // c, D // c
        pairs, breaks, pieces = [], [], [A, B, D]
        i, j, k, m, npre = 0, ng, 0, nf, len(pre)
        while i < ng or k < npre:
            if k == npre or i < ng and g[i] * pre[k][1] < pre[k][0] * g[i + 1]:
                n, d = g[i], g[i + 1]
                i, j = i + 2, j + 3
            else:
                n, d = pre[k]
                k, m = k + 1, m + 3
                if i < ng and g[i] == n and g[i + 1] == d:
                    i, j = i + 2, j + 3
            a, b, e = f[m], f[m + 1], f[m + 2]
            A1, B1, D1 = a * g[j], a * g[j + 1] + b * g[j + 2], e * g[j + 2]
            c = gcd(A1, B1, D1)
            A1, B1, D1 = A1 // c, B1 // c, D1 // c
            if A1 == A and B1 == B and D1 == D:
                continue
            A, B, D = A1, B1, D1
            yn, yd = A * n + B * d, D * d
            c = gcd(yn, yd)
            pairs.append((n, d, yn // c, yd // c))
            breaks += (n, d)
            pieces += (A, B, D)
        s, t = gcd(A, D), gcd(B, D)
        h = PLMap._of(tuple(pairs), lsn, lsd, A // s, D // s, B // t, D // t)
        h._kernel = (*breaks, *pieces)
        return h

    def __invert__(self) -> "PLMap":
        pairs, lsn, lsd, rsn, rsd, ton, tod = self._record()
        pts = [(yn, yd, xn, xd) for xn, xd, yn, yd in pairs]
        offset = None if pts else (-ton * rsd, tod * rsn)
        return _canonical(pts, lsd, lsn, rsd, rsn, offset)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._record() == other._record()

    def __hash__(self) -> int:
        return hash(self._record())

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


def _scan(
    pts: Iterable[tuple[int, int, int, int]],
    lsn: int, lsd: int, rsn: int, rsd: int,
    offset: object,
) -> tuple[list[tuple[int, int, int, int]], tuple[int, int] | None]:
    """The rules of canonical form, on integer points; shared by
    :func:`_canonical` and :func:`_problem`.

    Each point ``(xn, xd, yn, yd)`` is ``xn/xd -> yn/yd`` and the tail
    slopes are ``lsn/lsd`` and ``rsn/rsd``, all with positive, not
    necessarily reduced, denominators.  Checks that the tail slopes are
    positive; with no points, that ``offset`` is given and the tail slopes
    are equal; otherwise that breakpoints and values strictly increase.  The
    first rule broken raises :class:`InvalidMapError`.  Returns the points
    to keep, those whose two neighbouring slopes differ, and the tail
    offset read off the last point as an unreduced pair ``(n, d)`` with
    ``d > 0`` (``None`` with no points).  All by integer cross-multiplication;
    no ``Fraction`` is built unless a rule is broken.
    """
    if lsn <= 0 or rsn <= 0:
        raise InvalidMapError("tail slopes must be positive")
    if not pts:
        if offset is None:
            raise InvalidMapError("an affine map needs an explicit offset")
        if lsn * rsd != rsn * lsd:
            raise InvalidMapError("map without breakpoints must have equal tail slopes")
        return [], None
    # Each piece's slope as a pair a/d with d > 0, left to right; a point is
    # kept when the slopes of the pieces on its two sides differ.  Slopes
    # between original neighbours are unchanged by dropping points, so one
    # pass suffices.
    kept = []
    a0, d0 = lsn, lsd
    p0 = pts[0]
    xn0, xd0, yn0, yd0 = p0
    for p1 in pts[1:]:
        xn1, xd1, yn1, yd1 = p1
        dx = xn1 * xd0 - xn0 * xd1
        if dx <= 0:
            raise InvalidMapError(
                f"breakpoints not strictly increasing at {format_rational(Fraction(xn1, xd1))}"
            )
        dy = yn1 * yd0 - yn0 * yd1
        if dy <= 0:
            raise InvalidMapError(
                f"values not strictly increasing at {format_rational(Fraction(xn1, xd1))}"
            )
        a1, d1 = dy * xd0 * xd1, dx * yd0 * yd1
        if a0 * d1 != a1 * d0:
            kept.append(p0)
        a0, d0 = a1, d1
        p0, xn0, xd0, yn0, yd0 = p1, xn1, xd1, yn1, yd1
    if a0 * rsd != rsn * d0:
        kept.append(p0)
    return kept, (yn0 * rsd * xd0 - rsn * xn0 * yd0, yd0 * rsd * xd0)


def _canonical(
    pts: list[tuple[int, int, int, int]],
    lsn: int, lsd: int, rsn: int, rsd: int,
    offset: tuple[int, int] | None,
) -> PLMap:
    """The canonicalizer behind :meth:`PLMap.make`, ``~``, :func:`reflect`,
    :func:`_splice` and the case generator's map draws: ``CaseGen.plmap``
    (an affine draw too), ``CaseGen.mutate_below``'s bump and
    ``CaseGen._pl_fixing``, under ``CaseGen.homeo``.

    Runs :func:`_scan` on the points (see there for their form and the
    rules); each point's breakpoint pair must be reduced.  Checks a given
    ``offset`` pair against the tail, and returns the map whose record
    holds the kept points, each value reduced with one ``gcd``, and the
    reduced slopes and tail offset.  No ``Fraction`` is built unless a rule
    is broken.
    """
    kept, tail = _scan(pts, lsn, lsd, rsn, rsd, offset)
    if tail is None:
        ton, tod = offset
    else:
        ton, tod = tail
        if offset is not None and offset[0] * tod != ton * offset[1]:
            raise InvalidMapError(
                f"offset {format_rational(Fraction(*offset))} inconsistent with tail "
                f"{format_rational(Fraction(ton, tod))}"
            )
    pairs = []
    for xn, xd, yn, yd in kept:
        c = gcd(yn, yd)
        pairs.append((xn, xd, yn // c, yd // c))
    c, e, t = gcd(lsn, lsd), gcd(rsn, rsd), gcd(ton, tod)
    return PLMap._of(tuple(pairs), lsn // c, lsd // c, rsn // e, rsd // e, ton // t, tod // t)


def reflect(f: PLMap) -> PLMap:
    """``x -> -f(-x)``: ``f`` read in the reversed coordinate ``-x``."""
    pairs, lsn, lsd, rsn, rsd, ton, tod = f._record()
    pts = [(-xn, xd, -yn, yd) for xn, xd, yn, yd in reversed(pairs)]
    return _canonical(pts, rsn, rsd, lsn, lsd, None if pts else (-ton, tod))


def _splice(lower: PLMap, upper: PLMap, at: Fraction) -> PLMap:
    """The map equal to ``lower`` below ``at`` and ``upper`` above.

    Both maps must agree at ``at``; otherwise this raises
    :class:`InvalidMapError`.  The points are read off the two maps'
    records, so neither builds its ``Fraction`` fields.
    """
    n, d = at.numerator, at.denominator
    yn, yd = lower._eval(n, d)
    un, ud = upper._eval(n, d)
    if yn * ud != un * yd:
        raise InvalidMapError(f"splice point mismatch at {at}")
    below, lsn, lsd, _, _, _, _ = lower._record()
    above, _, _, rsn, rsd, _, _ = upper._record()
    pts = [p for p in below if p[0] * d < n * p[1]]
    pts.append((n, d, yn, yd))
    pts += (p for p in above if p[0] * d > n * p[1])
    return _canonical(pts, lsn, lsd, rsn, rsd, None)


def _problem(
    pts: tuple[tuple[int, int, int, int], ...],
    lsn: int, lsd: int, rsn: int, rsd: int,
    offset: tuple[int, int] | None,
) -> str | None:
    """The first rule of canonical form that this record breaks, or ``None``.

    Runs :func:`_scan` on the points; the stored ``offset`` must then be the
    tail offset the last point gives, and every point must be kept.
    """
    try:
        kept, tail = _scan(pts, lsn, lsd, rsn, rsd, offset)
    except InvalidMapError as exc:
        return str(exc)
    if tail is not None and (offset is None or offset[0] * tail[1] != tail[0] * offset[1]):
        return "stored tail offset inconsistent with breakpoint data"
    return None if len(kept) == len(pts) else "map is not in canonical form"


def check(f: PLMap) -> str | None:
    """A description of the first problem with ``f``'s record, or ``None``.

    Applies the constructor's rules to the record on their own, so they
    re-check what ``*`` and :func:`_canonical` built; only a record given to
    the unchecked :meth:`PLMap._of` can fail them.  Builds no map and no
    ``Fraction`` unless a rule is broken.
    """
    pts, lsn, lsd, rsn, rsd, ton, tod = f._record()
    return _problem(pts, lsn, lsd, rsn, rsd, (ton, tod))


def _above(f: PLMap, n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``f``'s kernel above ``n/d``: the breakpoint pairs strictly above it,
    and the piece triples from the piece that holds just above it on.  The
    piece is found by the walk of :meth:`PLMap._eval`."""
    kernel = f._kernel or f._build_kernel()
    end = 2 * len(f._pairs)
    i = 0
    while i < end and n * kernel[i + 1] >= kernel[i] * d:
        i += 2
    return kernel[i:end], kernel[end + 3 * (i >> 1) :]


def agree_on_ray(f: PLMap, g: PLMap, start: RationalLike) -> bool:
    """Exact test for ``f == g`` on the open ray ``(start, +oo)``.

    Precondition: ``f`` and ``g`` are canonical, as every map is unless it
    was built with the private, unchecked :meth:`PLMap._of`; on other
    records the answer can be wrong.  In canonical
    form every breakpoint is a change of slope, so two maps agree on the
    ray exactly when they have the same breakpoints above ``start`` and the
    same pieces from the one just above ``start`` on.  Both are read off
    the integer kernels, where a breakpoint is a reduced pair and a piece
    the reduced triple ``(A, B, D)`` with ``D > 0``, each unique: two
    int-tuple slices are compared, and no ``Fraction`` is built.
    """
    start = _frac(start)
    n, d = start.numerator, start.denominator
    return _above(f, n, d) == _above(g, n, d)
