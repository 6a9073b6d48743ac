"""Group actions on a leaf space and the induced germ homomorphism.

A :class:`Homeo` acts branch-wise: it permutes branch ids and maps each
branch's chart by an increasing PL map.  For the action to descend to the
glued space, the chart maps of a child and its parent must agree above the
child's departure, and the image branches must share their charts from
exactly the image of the departure onward (:func:`validate_homeo` checks
both, plus orientation).

Fixing an embedded line ``e`` that reaches the upper end, every homeomorphism
eventually carries the upper ray of ``e`` back onto ``e`` (all lines merge
going up).  The coordinate map of that return, probed only by
:func:`line_image` and its integer entry :func:`_line_image`, is an
increasing PL map of a ray; its germ at +infinity is the induced germ of
the homeomorphism, and word-by-word this assignment is a homomorphism into
the germ group.

The ray layer works on integer pairs ``(n, d)``, ``d > 0``: the ray events
are one sorted table of reduced pairs, the overlap scan, the germ samples
and the witness candidates are read off it and probed as pairs, and no
``Point`` or ``Fraction`` is built but a returned threshold or witness.

Homeos and words are immutable.  A homeo keeps its inverse and, in two
dicts keyed by space and embedded branch, its ray events and overlap ray;
a kept value is what recomputing gives and nothing that raises is kept, so
everything here acts as pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .germ import Germ
from .leafspace import Embedding, LeafSpace, LeafSpaceError, Point, Side
from .plmap import PLMap, _frac, agree_on_ray, check as check_plmap

FULL_LINE = None  # overlap_ray result when the whole embedded line maps into itself


class ActionError(ValueError):
    """Invalid homeomorphism data or an undefined application."""


class UnknownGeneratorError(ActionError):
    """A word uses a generator name that was never declared."""


class GermMismatchError(ActionError):
    """A word's composite germ differs from the product of its letters' germs."""


# ---------------------------------------------------------------------------
# Words over named generators


_LETTER_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?$")
# the most letters a parsed word may have, counted before a power is expanded
_MAX_WORD_LETTERS = 100_000


@dataclass(frozen=True)
class Word:
    """Freely reduced word over named generators.

    Letters are ``(name, +1|-1)`` pairs; construction checks each exponent
    and cancels adjacent inverse pairs.  A word is reduced once: ``w1 * w2``
    cancels only at the seam, since both factors are already reduced, and
    ``~w`` inverts; both build their result through the trusted
    :meth:`_reduced`.  The text form is whitespace-separated names with an
    optional ``^-1`` (powers like ``f^3`` are accepted as input sugar); the
    empty word prints as ``"1"``.  :meth:`parse` refuses text of more than
    100,000 letters, powers expanded.
    """

    letters: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def _reduce(letters: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
        out: list[tuple[str, int]] = []
        for name, exp in letters:
            if exp not in (1, -1):
                raise ActionError(f"letter exponent must be +-1, got {exp}")
            if out and out[-1][0] == name and out[-1][1] == -exp:
                out.pop()
            else:
                out.append((name, exp))
        return tuple(out)

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", Word._reduce(self.letters))

    @classmethod
    def _reduced(cls, letters: tuple[tuple[str, int], ...]) -> "Word":
        """The word of a letter tuple that is already freely reduced, with
        every exponent ``+-1``: nothing is checked and nothing cancels."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    @classmethod
    def parse(cls, text: str) -> "Word":
        letters: list[tuple[str, int]] = []
        for token in text.split():
            if token == "1":
                continue
            m = _LETTER_RE.match(token)
            if m is None:
                raise ActionError(f"bad word letter {token!r}")
            name = m.group(1)
            try:
                power = int(m.group(2) or 1)
            except ValueError:  # past the interpreter's integer string limit
                raise ActionError(
                    f"bad word letter: too many digits ({len(token)} characters)"
                ) from None
            if len(letters) + abs(power) > _MAX_WORD_LETTERS:
                raise ActionError(
                    f"bad word letter {token!r}: word longer than {_MAX_WORD_LETTERS} letters"
                )
            sign = 1 if power > 0 else -1
            letters.extend((name, sign) for _ in range(abs(power)))
        return cls(tuple(letters))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        left, right = self.letters, other.letters
        n, end = 0, min(len(left), len(right))
        while n < end and left[-1 - n][0] == right[n][0] and left[-1 - n][1] == -right[n][1]:
            n += 1
        return Word._reduced(left[: len(left) - n] + right[n:])

    def __invert__(self) -> "Word":
        return Word._reduced(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(name if exp == 1 else f"{name}^-1" for name, exp in self.letters)

    def __repr__(self) -> str:
        return f"Word.parse({str(self)!r})"


def reduced_words(names: Sequence[str], max_length: int) -> list[Word]:
    """All freely reduced words of length ``<= max_length``, shortest first.

    Deterministic: letters are tried in declaration order, positive sign
    first, and the empty word comes first.
    """
    alphabet = [(n, 1) for n in names] + [(n, -1) for n in names]
    out = [Word._reduced(())]
    layer: list[tuple[tuple[str, int], ...]] = [()]
    for _ in range(max_length):
        next_layer = []
        for prefix in layer:
            for letter in alphabet:
                if prefix and prefix[-1][0] == letter[0] and prefix[-1][1] == -letter[1]:
                    continue
                ext = prefix + (letter,)
                next_layer.append(ext)
                out.append(Word._reduced(ext))
        layer = next_layer
    return out


# ---------------------------------------------------------------------------
# Homeomorphisms


@dataclass(frozen=True)
class Homeo:
    """Branch permutation plus per-branch chart maps.

    ``branch_map`` and ``branch_pl`` cover one set of branches; keys that
    differ raise :class:`ActionError` here.  That set may be only part of a
    space (useful for probing rays of larger spaces); :func:`validate_homeo`
    insists on a total bijection.  Two homeos are equal when both maps are.
    A homeo carries no name: a generator's name is its key in the generators
    mapping.  :func:`invert_homeo` caches the inverse on the instance, and
    the inverse points back, so a homeo is inverted once.  Two dicts keyed
    by ``(space, e.branch)`` keep the ray data of each embedding ``e``:
    ``_events`` its sorted event table (see :func:`_ray_events`) and
    ``_overlaps`` its overlap ray, ``FULL_LINE`` included; a missing key
    means not yet computed.
    """

    branch_map: Mapping[str, str]
    branch_pl: Mapping[str, PLMap]
    _inverse: "Homeo | None" = field(default=None, init=False, repr=False, compare=False)
    _events: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _overlaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        branch_map, branch_pl = dict(self.branch_map), dict(self.branch_pl)
        if branch_map.keys() != branch_pl.keys():
            branch = min(branch_map.keys() ^ branch_pl.keys())
            lacking = "branch_pl" if branch in branch_map else "branch_map"
            raise ActionError(f"{lacking} does not cover branch {branch!r}")
        object.__setattr__(self, "branch_map", branch_map)
        object.__setattr__(self, "branch_pl", branch_pl)


def identity_homeo(space: LeafSpace) -> Homeo:
    ident = PLMap.identity()
    return Homeo({b: b for b in space.branches}, {b: ident for b in space.branches})


def validate_homeo(space: LeafSpace, h: Homeo) -> str | None:
    """Check that ``h`` defines an orientation-preserving homeomorphism.

    Returns ``None`` when valid, otherwise a message naming the first
    violated condition: coverage of exactly the declared branches,
    bijection, orientation (each chart map must be an increasing canonical
    PL map), agreement of child and parent maps above the departure, or the
    departure-image condition (the image charts must share their lines from
    exactly the mapped departure on).  For a ``"side": "positive"`` space,
    stored reflected, the message speaks in file coordinates: maps disagree
    below the departure, and coordinates are negated back.

    Every chart map passes :func:`~germkit.plmap.check` before any pair is
    compared, since :func:`~germkit.plmap.agree_on_ray` reads canonical
    kernels.  The checks run on ints: for a valid ``h`` whose chart maps
    store ``Fraction`` fields, no ``Fraction`` and no ``PLMap`` is built.
    The branch names, their order, the child-parent edges and the share
    thresholds are read from tables the space builds or keeps once.
    """
    names = space._names
    undeclared = h.branch_map.keys() - names  # branch_pl has the same keys
    if undeclared:
        return f"branch {sorted(undeclared)[0]!r} is not declared in the space"
    missing = names.difference(h.branch_map)
    if missing:
        return f"branch_map does not cover branch {sorted(missing)[0]!r}"
    # both maps cover exactly the names, so a surjective branch_map is a bijection
    if names != set(h.branch_map.values()):
        return "branch_map is not a bijection of the branches"
    for b in space._sorted_names:
        problem = check_plmap(h.branch_pl[b])
        if problem is not None:
            return f"orientation: branch {b!r} chart map invalid ({problem})"
    sign, shared = (-1, "below") if space.side is Side.POSITIVE else (1, "above")
    for child, par, dep in space._edges:
        if not agree_on_ray(h.branch_pl[child], h.branch_pl[par], dep):
            return (
                f"compatibility: chart maps of {child!r} and parent {par!r} "
                f"disagree {shared} the departure"
            )
        n, d = h.branch_pl[par]._eval(dep.numerator, dep.denominator)
        threshold = space.share_threshold(h.branch_map[child], h.branch_map[par])
        if threshold.numerator * d != n * threshold.denominator:
            return (
                f"departure: image branches {h.branch_map[child]!r}, "
                f"{h.branch_map[par]!r} share from {sign * threshold}, "
                f"expected {sign * Fraction(n, d)}"
            )
    return None


def apply_homeo(space: LeafSpace, h: Homeo, p: Point) -> Point:
    """Image of a canonical point, canonicalized.

    It is :func:`_apply_pairs` on ``p``'s reduced coordinate pair, so it
    runs on ints and builds no ``Fraction``; the image's ``.coord`` is built
    when read.  An image branch the space does not declare raises
    :class:`~germkit.leafspace.LeafSpaceError`.
    """
    return Point._of(*_apply_pairs(space, h, ((p.branch, p._n, p._d),))[0])


def _apply_pairs(
    space: LeafSpace, h: Homeo, pairs: Iterable[tuple[str, int, int]]
) -> list[tuple[str, int, int]]:
    """Move many points by ``h``, each given and returned as a branch with
    its reduced coordinate pair, ``(branch, n, d)``.

    The chart map's integer entry takes each pair, the space ascends past
    departures on the unreduced image pair, and the image is reduced by one
    ``gcd``.  The first point it cannot move raises.  No ``Point`` and no
    ``Fraction`` is built; :func:`apply_homeo` is this on one point.
    """
    branch_map, branch_pl, ascend = h.branch_map, h.branch_pl, space._ascend
    out = []
    for branch, n, d in pairs:
        if branch not in branch_map:
            raise ActionError(f"homeomorphism undefined on branch {branch!r}")
        n, d = branch_pl[branch]._eval(n, d)
        g = gcd(n, d)
        out.append((ascend(branch_map[branch], n, d), n // g, d // g))
    return out


def line_image(space: LeafSpace, h: Homeo, e: Embedding, x: Fraction) -> tuple[int, int] | None:
    """The return map ``e^-1(h(e(x)))`` at ``x``: the reduced pair of
    ``h(e(x))`` when it lies on ``e``, else ``None``.  It is
    :func:`_line_image` on ``x``'s pair, and builds no ``Fraction``."""
    return _line_image(space, h, e, x.numerator, x.denominator)


def _line_image(
    space: LeafSpace, h: Homeo, e: Embedding, n: int, d: int
) -> tuple[int, int] | None:
    """The integer entry of :func:`line_image`, at ``x = n/d`` for any pair
    with ``d > 0``: :func:`apply_homeo` on ``e``'s point at ``x``, then
    membership by one more ascent from ``e``'s branch, with that route's
    errors.  Cross-multiplication ignores scaling, so the pair need not be
    reduced; an image on ``e`` is reduced by one ``gcd``."""
    ascend = space._ascend
    branch = ascend(e.branch, n, d)
    if branch not in h.branch_map:
        raise ActionError(f"homeomorphism undefined on branch {branch!r}")
    n, d = h.branch_pl[branch]._eval(n, d)
    if ascend(h.branch_map[branch], n, d) != ascend(e.branch, n, d):
        return None
    g = gcd(n, d)
    return n // g, d // g


def compose_homeo(outer: Homeo, inner: Homeo) -> Homeo:
    """``outer after inner`` on every branch both maps cover."""
    branch_map = {}
    branch_pl = {}
    for b in inner.branch_map:
        mid = inner.branch_map[b]
        if mid not in outer.branch_map:
            raise ActionError(f"composition undefined on branch {b!r}")
        branch_map[b] = outer.branch_map[mid]
        branch_pl[b] = outer.branch_pl[mid] * inner.branch_pl[b]
    return Homeo(branch_map, branch_pl)


def invert_homeo(h: Homeo) -> Homeo:
    """The inverse of ``h``, built on the first call and cached on ``h``."""
    if h._inverse is not None:
        return h._inverse
    inverse = Homeo(
        {target: source for source, target in h.branch_map.items()},
        {target: ~h.branch_pl[source] for source, target in h.branch_map.items()},
    )
    object.__setattr__(inverse, "_inverse", h)
    object.__setattr__(h, "_inverse", inverse)
    return inverse


def letter_homeo(generators: Mapping[str, Homeo], name: str, exp: int) -> Homeo:
    """The homeo of the letter ``name^exp``; an inverse letter reuses the
    generator's cached inverse, so :func:`invert_homeo` runs once per generator."""
    if name not in generators:
        raise UnknownGeneratorError(f"undeclared generator {name!r}")
    step = generators[name]
    if exp == 1:
        return step
    return step._inverse or invert_homeo(step)


def extend_space_for_action(
    space: LeafSpace,
    generators: Mapping[str, Homeo],
    max_new_branches: int = 0,
) -> LeafSpace:
    """Create branches that generators name but the space lacks.

    A generator file may describe a finite window of a larger space, mapping
    an existing branch to a branch id that is not declared.  Each missing
    target can be created under the image of the source's parent, departing
    at the image of the source's departure.  With ``max_new_branches == 0``
    (the default) nothing is created and the incomplete action is left to
    fail validation; otherwise creation repeats until the maps close up or
    the bound is exceeded.
    """
    if max_new_branches <= 0:
        return space
    branches: dict[str, tuple[str | None, object]] = {
        name: (br.parent, br.departure) for name, br in space.branches.items()
    }
    created = 0
    changed = True
    while changed:
        changed = False
        for gen_name in sorted(generators):
            gen = generators[gen_name]
            for src in sorted(gen.branch_map):
                dst = gen.branch_map[src]
                if src not in branches or dst in branches:
                    continue
                parent, departure = branches[src]
                if parent is None:
                    raise ActionError(
                        f"cannot extend: generator {gen_name!r} sends the root "
                        f"to the undeclared branch {dst!r}"
                    )
                image_parent = gen.branch_map.get(parent)
                if image_parent is None or image_parent not in branches:
                    continue  # created on a later pass once the parent image exists
                created += 1
                if created > max_new_branches:
                    raise ActionError(
                        f"action needs more than {max_new_branches} new branches; "
                        f"raise the extension bound or complete the space"
                    )
                branches[dst] = (image_parent, gen.branch_pl[parent](departure))
                changed = True
    if created == 0:
        return space
    return LeafSpace.build(space.side, branches)


def word_homeo(space: LeafSpace, generators: Mapping[str, Homeo], word: Word) -> Homeo:
    """Compose a word of generators, outermost letter first, and validate it.

    The word is built letter by letter from its first letter's homeo, so a
    word of ``n`` letters costs ``n - 1`` compositions; only the empty word
    starts from the identity.  Even a one-letter word's homeo is a new
    object, equal to its letter's homeo but not that homeo.  Canonical
    forms are unique and composition is associative, so the maps are those
    of the word built from the identity.  The generators are not trusted,
    so an invalid composite raises :class:`ActionError` naming the word.
    """
    if word.letters:
        first = letter_homeo(generators, *word.letters[0])
        result, letters = Homeo(first.branch_map, first.branch_pl), word.letters[1:]
    else:
        result, letters = identity_homeo(space), ()
    for name, exp in letters:
        result = compose_homeo(result, letter_homeo(generators, name, exp))
    problem = validate_homeo(space, result)
    if problem is not None:
        raise ActionError(f"invalid homeomorphism {word}: {problem}")
    return result


# ---------------------------------------------------------------------------
# Overlap rays and induced germs


def _ray_events(space: LeafSpace, h: Homeo, e: Embedding) -> tuple[tuple[int, int], ...]:
    """Coordinates where the embedded-ray picture of ``h`` can change, as
    sorted, distinct, reduced pairs ``(n, d)`` with ``d > 0``.

    Between consecutive events the owning branch of ``e(x)``, the owning
    branch of the image, and the chart piece acting are all constant, and
    the coordinate map is affine.  :func:`_ray_event_set` is sorted exactly
    on the key ``n * (L // d)``, ``L`` the least common multiple of the
    denominators, so no ``Fraction`` is built; the table is built on the
    first call and kept in ``h._events``.
    """
    key = (space, e.branch)
    events = h._events.get(key)
    if events is None:
        found = _ray_event_set(space, h, e)
        scale = lcm(*(d for _, d in found))
        events = h._events[key] = tuple(sorted(found, key=lambda ev: ev[0] * (scale // ev[1])))
    return events


def _ray_event_set(space: LeafSpace, h: Homeo, e: Embedding) -> set[tuple[int, int]]:
    """The ray events as an unsorted set of reduced pairs: every departure
    of the space, and each chart breakpoint and preimage of a departure
    along ``e``'s chain, read on ints off the departures, each chart map's
    integer record and its integer preimage, each preimage reduced by one
    ``gcd``."""
    departures = [(dep.numerator, dep.denominator) for dep in space._departures]
    events = set(departures)
    for branch in space.chain_to_root(e.branch):
        if branch not in h.branch_pl:
            raise ActionError(f"homeomorphism undefined on branch {branch!r}")
        pl = h.branch_pl[branch]
        events.update(pl._breaks())
        for n, d in departures:
            n, d = pl._preimage(n, d)
            g = gcd(n, d)
            events.add((n // g, d // g))
    return events


def overlap_ray(space: LeafSpace, h: Homeo, e: Embedding) -> Fraction | None:
    """Least ``t`` with ``h(e(x))`` on the embedded line for every ``x > t``.

    Returns ``FULL_LINE`` (``None``) when the whole line maps into itself.
    The image predicate is constant between events, so scanning events and
    interval midpoints decides the threshold exactly: ``2 * len(events) + 1``
    applications of ``h``.  The threshold is ``FULL_LINE`` or an event.
    The result is kept on ``h``, so the scan runs once per ``(space, e)``.
    """
    key = (space, e.branch)
    if key not in h._overlaps:
        h._overlaps[key] = _overlap_scan(space, h, e, _ray_events(space, h, e))
    return h._overlaps[key]


def _overlap_scan(
    space: LeafSpace, h: Homeo, e: Embedding, events: Sequence[tuple[int, int]]
) -> Fraction | None:
    """:func:`overlap_ray` on the event pairs that :func:`_ray_events` gave;
    only the threshold returned is built as a ``Fraction``."""
    top = (events[-1][0] + events[-1][1], events[-1][1]) if events else (0, 1)
    if _line_image(space, h, e, *top) is None:
        raise ActionError("image ray never returns to the embedded line")
    # Each failure found scanning upward bounds the threshold by at least
    # as much as the one before, so the last failure is the threshold.
    worst = None
    if events and _line_image(space, h, e, events[0][0] - events[0][1], events[0][1]) is None:
        worst = events[0]
    last = len(events) - 1
    for i, (a, b) in enumerate(events):
        if _line_image(space, h, e, a, b) is None:
            worst = a, b
        if i < last:
            c, d = events[i + 1]
            if _line_image(space, h, e, a * d + c * b, 2 * b * d) is None:
                worst = events[i + 1]
    return FULL_LINE if worst is None else Fraction(*worst)


def induced_germ(
    space: LeafSpace,
    h: Homeo,
    e: Embedding,
    threshold: Fraction | None = None,
) -> Germ:
    """Germ at +infinity of the coordinate map ``x -> e^-1(h(e(x)))``.

    By default it is ``Germ.of`` of ``h``'s root chart map, whatever ``e``;
    nothing is probed or kept.  Proof: let ``D`` be the largest departure.
    For ``x`` above ``D``, ``h_root^-1(D)`` and ``h_root``'s last
    breakpoint, ``e(x)`` is ``(root, x)``; its image ``h_root(x)`` lies
    above ``D``, so it ascends to the root, which is on every embedded
    line, and the return map there is ``h_root``'s affine tail.  Corollary:
    compatibility gives every chart map of a valid homeo the root chart's
    tail, so ``d(g h) = tail(g_{h(root)}) tail(h_root) = d(g) d(h)``.  An
    undeclared ``e`` or root image raises
    :class:`~germkit.leafspace.LeafSpaceError`; no root chart or image, or
    a root tail that does not increase, raises :class:`ActionError`.

    An explicit ``threshold`` is checked against the overlap ray, scanned
    and kept as in :func:`overlap_ray` (one below it raises
    :class:`ActionError`), and the germ is read off two :func:`_line_image`
    probes one and two above it and above every ray event: an independent
    route to the same germ.  Neither route builds a ``Fraction`` but the
    scanned threshold.
    """
    if threshold is None:
        space.chain_to_root(e.branch)  # checks that e's branch is declared
        root = space.root
        if root not in h.branch_map:
            raise ActionError(f"homeomorphism undefined on branch {root!r}")
        if h.branch_map[root] not in space._names:
            raise LeafSpaceError(f"unknown branch {h.branch_map[root]!r}")
        pl = h.branch_pl[root]
        if pl._tail()[0] <= 0:
            raise ActionError(f"chart map of the root {root!r} is not increasing at +infinity")
        return Germ.of(pl)
    events = _ray_events(space, h, e)
    start = _frac(threshold)
    xn, xd = start.numerator, start.denominator
    t0 = overlap_ray(space, h, e)
    if t0 is not None and xn * t0.denominator < t0.numerator * xd:
        raise ActionError(f"threshold {start} lies below the overlap ray {t0}")
    if events and events[-1][0] * xd > xn * events[-1][1]:
        xn, xd = events[-1]
    xn += xd
    y1 = _line_image(space, h, e, xn, xd)
    y2 = _line_image(space, h, e, xn + xd, xd)
    if y1 is None or y2 is None:
        raise ActionError("sample point above the overlap ray left the line")
    # the samples lie one apart: the slope is y2 - y1, the offset y1 - slope * x
    (n1, d1), (n2, d2) = y1, y2
    sn, sd = n2 * d1 - n1 * d2, d1 * d2
    if sn <= 0:
        raise ValueError("germ slope must be positive")
    return Germ._of(sn, sd, n1 * sd * xd - sn * xn * d1, d1 * sd * xd)


def word_germ(
    space: LeafSpace,
    generators: Mapping[str, Homeo],
    word: Word,
    e: Embedding,
) -> Germ:
    """Induced germ of a word, cross-checked letter by letter.

    Computes the germ of the composed homeomorphism and, independently, the
    product of the letters' germs; the two must agree (multiplicativity),
    and the common value is returned.  A disagreement raises
    :class:`GermMismatchError`.

    The composite germ is the tail of a composed root chart, and the
    product multiplies the letters' root tails, so the two agree only when
    each letter's chart maps share its root tail.
    """
    direct = induced_germ(space, word_homeo(space, generators, word), e)
    product = Germ.identity()
    for letter in word.letters:
        product = product * induced_germ(space, letter_homeo(generators, *letter), e)
    if product != direct:
        raise GermMismatchError(
            f"germ of composition {direct!r} disagrees with letter product {product!r}"
        )
    return direct


def moved_point_witness(
    space: LeafSpace,
    h: Homeo,
    e: Embedding,
    n: Fraction,
) -> Fraction | None:
    """Some ``m > n`` with ``h(e(m)) != e(m)``, or ``None`` if there is none.

    The moved set above ``n`` is a finite union of event points and open
    intervals on which the coordinate map is affine, so testing every event
    and two interior points per interval decides the question exactly.
    The events are those :func:`_ray_events` keeps on ``h``.  Candidates
    are integer pairs; only the witness returned is built as a ``Fraction``.
    """
    n = _frac(n)
    a, b = n.numerator, n.denominator
    candidates: list[tuple[int, int]] = []
    for c, d in _ray_events(space, h, e):
        if c * b > a * d:
            candidates += ((2 * a * d + c * b, 3 * b * d), (a * d + 2 * c * b, 3 * b * d), (c, d))
            a, b = c, d
    candidates += ((a + b, b), (a + 2 * b, b))
    for xn, xd in candidates:
        y = _line_image(space, h, e, xn, xd)
        if y is None or y[0] * xd != xn * y[1]:
            return Fraction(xn, xd)
    return None
