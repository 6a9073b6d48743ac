"""Group actions on a leaf space and the induced germ homomorphism.

A :class:`Homeo` acts branch-wise: it permutes branch ids and maps each
branch's chart by an increasing PL map.  For the action to descend to the
glued space, the chart maps of a child and its parent must agree above the
child's departure, and the image branches must share their charts from
exactly the image of the departure onward (:func:`validate_homeo` checks
both, plus orientation).

Fixing an embedded line ``e`` that reaches the upper end, every homeomorphism
eventually carries the upper ray of ``e`` back onto ``e`` (all lines merge
going up).  The coordinate map of that eventual identification is an
increasing PL map of a ray; its germ at +infinity is the induced germ of the
homeomorphism, and word-by-word this assignment is a homomorphism into the
germ group.

Homeos and words are immutable; everything here is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .germ import Germ
from .leafspace import Embedding, LeafSpace, Point
from .plmap import PLMap, _frac, agree_on_ray, check as check_plmap

FULL_LINE = None  # overlap_ray result when the whole embedded line maps into itself


class ActionError(ValueError):
    """Invalid homeomorphism data or an undefined application."""


class UnknownGeneratorError(ActionError):
    """A word uses a generator name that was never declared."""


# ---------------------------------------------------------------------------
# Words over named generators


_LETTER_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class Word:
    """Freely reduced word over named generators.

    Letters are ``(name, +1|-1)`` pairs; construction cancels adjacent
    inverse pairs.  ``w1 * w2`` concatenates and reduces, ``~w`` inverts.
    The text form is whitespace-separated names with an optional ``^-1``
    (powers like ``f^3`` are accepted as input sugar); the empty word prints
    as ``"1"``.
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
    def parse(cls, text: str) -> "Word":
        letters: list[tuple[str, int]] = []
        for token in text.split():
            if token == "1":
                continue
            m = _LETTER_RE.match(token)
            if m is None:
                raise ActionError(f"bad word letter {token!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            sign = 1 if power > 0 else -1
            letters.extend((name, sign) for _ in range(abs(power)))
        return cls(tuple(letters))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(tuple((name, -exp) for name, exp in reversed(self.letters)))

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
    out = [Word()]
    layer: list[tuple[tuple[str, int], ...]] = [()]
    for _ in range(max_length):
        next_layer = []
        for prefix in layer:
            for letter in alphabet:
                if prefix and prefix[-1][0] == letter[0] and prefix[-1][1] == -letter[1]:
                    continue
                ext = prefix + (letter,)
                next_layer.append(ext)
                out.append(Word(ext))
        layer = next_layer
    return out


# ---------------------------------------------------------------------------
# Homeomorphisms


@dataclass(frozen=True)
class Homeo:
    """Branch permutation plus per-branch chart maps.

    ``branch_map`` and ``branch_pl`` may cover only part of a space (useful
    for probing rays of larger spaces); :func:`validate_homeo` insists on a
    total bijection.
    """

    branch_map: Mapping[str, str]
    branch_pl: Mapping[str, PLMap]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "branch_map", dict(self.branch_map))
        object.__setattr__(self, "branch_pl", dict(self.branch_pl))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Homeo):
            return NotImplemented
        return self.branch_map == other.branch_map and self.branch_pl == other.branch_pl

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted(self.branch_map.items())),
                tuple(sorted(self.branch_pl.items())),
            )
        )


def identity_homeo(space: LeafSpace) -> Homeo:
    ident = PLMap.identity()
    return Homeo(
        {b: b for b in space.branches},
        {b: ident for b in space.branches},
        name="1",
    )


def validate_homeo(space: LeafSpace, h: Homeo) -> str | None:
    """Check that ``h`` defines an orientation-preserving homeomorphism.

    Returns ``None`` when valid, otherwise a message naming the first
    violated condition: coverage, bijection, orientation (each chart map must
    be an increasing canonical PL map), agreement of child and parent maps
    above the departure, or the departure-image condition (the image charts
    must share their lines from exactly the mapped departure on).
    """
    names = set(space.branches)
    missing = names - set(h.branch_map)
    if missing:
        return f"branch_map does not cover branch {sorted(missing)[0]!r}"
    missing = names - set(h.branch_pl)
    if missing:
        return f"branch_pl does not cover branch {sorted(missing)[0]!r}"
    targets = [h.branch_map[b] for b in sorted(names)]
    if set(targets) != names or len(set(targets)) != len(targets):
        return "branch_map is not a bijection of the branches"
    for b in sorted(names):
        problem = check_plmap(h.branch_pl[b])
        if problem is not None:
            return f"orientation: branch {b!r} chart map invalid ({problem})"
    for child in sorted(names):
        par = space.parent(child)
        if par is None:
            continue
        dep = space.departure(child)
        assert dep is not None
        if not agree_on_ray(h.branch_pl[child], h.branch_pl[par], dep):
            return (
                f"compatibility: chart maps of {child!r} and parent {par!r} "
                f"disagree above the departure"
            )
        image_dep = h.branch_pl[par](dep)
        threshold = space.share_threshold(h.branch_map[child], h.branch_map[par])
        if threshold != image_dep:
            return (
                f"departure: image branches {h.branch_map[child]!r}, "
                f"{h.branch_map[par]!r} share from {threshold}, expected {image_dep}"
            )
    return None


def require_valid(space: LeafSpace, h: Homeo) -> None:
    problem = validate_homeo(space, h)
    if problem is not None:
        raise ActionError(f"invalid homeomorphism {h.name or ''}: {problem}")


def apply_homeo(space: LeafSpace, h: Homeo, p: Point) -> Point:
    """Image of a canonical point, canonicalized."""
    if p.branch not in h.branch_map or p.branch not in h.branch_pl:
        raise ActionError(f"homeomorphism undefined on branch {p.branch!r}")
    image = Point(h.branch_map[p.branch], h.branch_pl[p.branch](p.coord))
    return space.canonical(image)


def compose_homeo(space: LeafSpace, outer: Homeo, inner: Homeo) -> Homeo:
    """``outer after inner`` on every branch both maps cover."""
    branch_map = {}
    branch_pl = {}
    for b in inner.branch_map:
        mid = inner.branch_map[b]
        if mid not in outer.branch_map:
            raise ActionError(f"composition undefined on branch {b!r}")
        branch_map[b] = outer.branch_map[mid]
        branch_pl[b] = outer.branch_pl[mid] * inner.branch_pl[b]
    name = f"{outer.name} {inner.name}".strip()
    return Homeo(branch_map, branch_pl, name=name)


def invert_homeo(space: LeafSpace, h: Homeo) -> Homeo:
    inverse_map = {target: source for source, target in h.branch_map.items()}
    branch_pl = {}
    for source, target in h.branch_map.items():
        pl = h.branch_pl.get(source)
        if pl is None:
            raise ActionError(f"homeomorphism has no chart map on branch {source!r}")
        branch_pl[target] = ~pl
    name = f"{h.name}^-1" if h.name else ""
    return Homeo(inverse_map, branch_pl, name=name)


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
                if parent not in gen.branch_pl:
                    raise ActionError(
                        f"cannot extend: generator {gen_name!r} has no chart map "
                        f"on branch {parent!r}"
                    )
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


def word_homeo(
    space: LeafSpace,
    generators: Mapping[str, Homeo],
    word: Word,
    validate: bool = True,
    prefix: Homeo | None = None,
) -> Homeo:
    """Compose a word of generators, outermost letter first.

    Without ``prefix`` the word is built from the identity, letter by
    letter.  With ``prefix``, the homeo of ``word`` minus its last letter,
    only that letter is composed onto it.
    """
    if prefix is None:
        result, letters = identity_homeo(space), word.letters
    elif word.letters:
        result, letters = prefix, word.letters[-1:]
    else:
        raise ActionError("the empty word has no prefix")
    for name, exp in letters:
        if name not in generators:
            raise UnknownGeneratorError(f"undeclared generator {name!r}")
        step = generators[name]
        if exp == -1:
            step = invert_homeo(space, step)
        result = compose_homeo(space, result, step)
    if validate:
        require_valid(space, result)
    return Homeo(result.branch_map, result.branch_pl, name=str(word))


# ---------------------------------------------------------------------------
# Overlap rays and induced germs


def _ray_events(space: LeafSpace, h: Homeo, e: Embedding) -> list[Fraction]:
    """Coordinates where the embedded-ray picture of ``h`` can change.

    Between consecutive events the owning branch of ``e(x)``, the owning
    branch of the image, and the chart piece acting are all constant, and
    the coordinate map is affine.
    """
    departures = {
        dep
        for name in space.branches
        if (dep := space.departure(name)) is not None
    }
    events: set[Fraction] = set(departures)
    for branch in space.chain_to_root(e.branch):
        if branch not in h.branch_pl:
            raise ActionError(f"homeomorphism undefined on branch {branch!r}")
        pl = h.branch_pl[branch]
        events.update(pl.breakpoints)
        inv = ~pl
        events.update(inv(m) for m in departures)
    return sorted(events)


def _overlap_threshold(
    space: LeafSpace, h: Homeo, e: Embedding, events: list[Fraction]
) -> Fraction | None:
    """:func:`overlap_ray` decided on the already scanned ``events`` of ``h``."""

    def on_line(x: Fraction) -> bool:
        image = apply_homeo(space, h, e.point_at(space, x))
        return e.contains(space, image)

    if not on_line(events[-1] + 1 if events else Fraction(0)):
        raise ActionError("image ray never returns to the embedded line")
    # Each failure found scanning upward bounds the threshold by at least
    # as much as the one before, so the last failure is the threshold.
    worst = FULL_LINE
    if events and not on_line(events[0] - 1):
        worst = events[0]
    for i, ev in enumerate(events):
        if not on_line(ev):
            worst = ev
        if i + 1 < len(events) and not on_line((ev + events[i + 1]) / 2):
            worst = events[i + 1]
    return worst


def overlap_ray(space: LeafSpace, h: Homeo, e: Embedding) -> Fraction | None:
    """Least ``t`` with ``h(e(x))`` on the embedded line for every ``x > t``.

    Returns ``FULL_LINE`` (``None``) when the whole line maps into itself.
    The image predicate is constant between events, so scanning events and
    interval midpoints decides the threshold exactly.
    """
    return _overlap_threshold(space, h, e, _ray_events(space, h, e))


def induced_germ(
    space: LeafSpace,
    h: Homeo,
    e: Embedding,
    threshold: Fraction | None = None,
) -> Germ:
    """Germ at +infinity of the coordinate map ``x -> e^-1(h(e(x)))``.

    The map is read off on a ray above ``threshold`` (defaulting to the
    overlap ray); by then it is a single affine piece, so two sample points
    determine it exactly.  The result does not depend on the threshold,
    which is what makes the assignment well defined.
    """
    events = _ray_events(space, h, e)
    t0 = _overlap_threshold(space, h, e, events)
    if threshold is None:
        base = t0 if t0 is not None else Fraction(0)
    else:
        base = _frac(threshold)
        if t0 is not None and base < t0:
            raise ActionError(f"threshold {base} lies below the overlap ray {t0}")
    start = max([base, *events]) if events else base
    samples = []
    for x in (start + 1, start + 2):
        image = apply_homeo(space, h, e.point_at(space, x))
        if not e.contains(space, image):
            raise ActionError("sample point above the overlap ray left the line")
        samples.append((x, image.coord))
    (x1, y1), (x2, y2) = samples
    slope = (y2 - y1) / (x2 - x1)
    return Germ(slope, y1 - slope * x1)


def word_germ(
    space: LeafSpace,
    generators: Mapping[str, Homeo],
    word: Word,
    e: Embedding,
) -> Germ:
    """Induced germ of a word, cross-checked letter by letter.

    Computes the germ of the composed homeomorphism and, independently, the
    product of the letters' germs; the two must agree (multiplicativity),
    and the common value is returned.
    """
    composed = word_homeo(space, generators, word)
    direct = induced_germ(space, composed, e)
    product = Germ.identity()
    for name, exp in word.letters:
        if name not in generators:
            raise UnknownGeneratorError(f"undeclared generator {name!r}")
        step = generators[name]
        if exp == -1:
            step = invert_homeo(space, step)
        product = product * induced_germ(space, step, e)
    if product != direct:
        raise ActionError(
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
    """
    n = _frac(n)

    def moved(x: Fraction) -> bool:
        return apply_homeo(space, h, e.point_at(space, x)) != e.point_at(space, x)

    events = [ev for ev in _ray_events(space, h, e) if ev > n]
    candidates: list[Fraction] = []
    cursor = n
    for ev in events:
        gap = ev - cursor
        candidates.extend((cursor + gap / 3, cursor + 2 * gap / 3, ev))
        cursor = ev
    candidates.extend((cursor + 1, cursor + 2))
    for x in candidates:
        if moved(x):
            return x
    return None
