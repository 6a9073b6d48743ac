"""Blowing up a marked orbit and the coset-twisted action on the result.

Each point of the (depth-bounded) orbit of a marked point is replaced by a
unit interval.  A word ``h`` acts on plain points through the underlying
action; an interval point over ``g(marked)`` at height ``t`` is carried to
the interval over ``hg(marked)`` at height ``phi(x_{hgK}^-1 h x_{gK})(t)``,
where ``K`` is the declared stabilizer of the marked point, ``phi`` realizes
``K`` on the unit interval, and ``x_{gK}`` is the fixed representative of the
coset ``gK``.  The twist word always lies in ``K``, which is what makes the
assignment independent of how the interval was reached.

The orbit is expanded lazily to a fixed word depth; applications that would
need deeper orbit points raise :class:`OrbitEscapeError` rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .action import (
    ActionError,
    Homeo,
    Word,
    apply_homeo,
    induced_germ,
    invert_homeo,
    reduced_words,
    word_homeo,
    _ray_events,
)
from .germ import Germ, eventual_comparison_bound
from .leafspace import Classification, Embedding, LeafSpace, LeafSpaceError, Point
from .plmap import PLMap, _frac


class BlowupError(ValueError):
    """Invalid blow-up data."""


class OrbitEscapeError(BlowupError):
    """An application needs an orbit point beyond the expanded depth."""


class CosetError(BlowupError):
    """A coset representative or twist word is not where it should be."""


class StabilizerGeneratorError(BlowupError):
    """Declared stabilizer generator ``index`` is not a letter of its own."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# Stabilizer data


@dataclass
class StabilizerData:
    """Declared stabilizer of the marked point, with its interval realization.

    ``k_generators`` generate the stabilizer as words over the action's
    generators; ``phi`` maps each stabilizer generator (keyed by its text
    form) to a PL map fixing ``[0, 1]`` pointwise outside and ``0``/``1``
    inside.  Each generator must be one letter, no two on one generator
    name (else :class:`StabilizerGeneratorError`): such letters are a free
    basis of K, so greedy factorization is exact, and ``coset_rep``, which
    strips them off a word's tail, picks one representative per coset.  An
    explicit ``coset_table`` overrides individual words.
    """

    k_generators: tuple[Word, ...]
    phi: Mapping[str, PLMap]
    coset_table: Mapping[str, Word] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.k_generators = tuple(self.k_generators)
        self.phi = dict(self.phi)
        self.coset_table = dict(self.coset_table)
        self._phi_cache: dict[tuple[tuple[str, int], ...], PLMap] = {}
        self._rep_cache: dict[tuple[tuple[str, int], ...], Word] = {}
        names: set[str] = set()
        for i, gen in enumerate(self.k_generators):
            if len(gen.letters) != 1 or gen.letters[0][0] in names:
                raise StabilizerGeneratorError(
                    i, f"stabilizer generator {str(gen)!r} is not a letter of its own"
                )
            names.add(gen.letters[0][0])
            if str(gen) not in self.phi:
                raise BlowupError(f"phi is missing stabilizer generator {str(gen)!r}")

    # -- the unit-interval realization --------------------------------------

    def validate_phi(self, ball: int = 5) -> str | None:
        """Check each phi image fixes 0 and 1 (identity outside the interval)
        and that no nontrivial stabilizer word of length <= ball fixes 1/2."""
        for name, pl in self.phi.items():
            if pl(Fraction(0)) != 0 or pl(Fraction(1)) != 1:
                return f"phi[{name!r}] does not fix 0 and 1"
            if pl.left_slope != 1 or pl.right_slope != 1:
                return f"phi[{name!r}] is not the identity outside [0, 1]"
            if pl.breakpoints and (pl.breakpoints[0] < 0 or pl.breakpoints[-1] > 1):
                return f"phi[{name!r}] moves points outside [0, 1]"
        half = Fraction(1, 2)
        names = [str(g) for g in self.k_generators]
        for w in reduced_words(names, ball):
            if w.is_identity():
                continue
            pl = self._phi_of_factors(w.letters)
            if pl(half) == half:
                return f"phi is not faithful at 1/2: word {str(w)!r} fixes it"
        return None

    def _phi_of_factors(self, factors: Iterable[tuple[str, int]]) -> PLMap:
        result = PLMap.identity()
        for name, exp in factors:
            pl = self.phi[name]
            result = result * (pl if exp == 1 else ~pl)
        return result

    # -- membership and cosets ----------------------------------------------

    def stabilizer_factorization(self, word: Word) -> tuple[tuple[str, int], ...] | None:
        """Greedy factorization of ``word`` as a product of stabilizer
        generators; ``None`` when the word is visibly outside the subgroup."""
        factors: list[tuple[str, int]] = []
        remaining = tuple(word.letters)
        while remaining:
            for gen in self.k_generators:
                glen = len(gen.letters)
                if remaining[:glen] == gen.letters:
                    factors.append((str(gen), 1))
                    remaining = remaining[glen:]
                    break
                if remaining[:glen] == (~gen).letters:
                    factors.append((str(gen), -1))
                    remaining = remaining[glen:]
                    break
            else:
                return None
        return tuple(factors)

    def in_stabilizer(self, word: Word) -> bool:
        return self.stabilizer_factorization(word) is not None

    def phi_word(self, word: Word) -> PLMap:
        cached = self._phi_cache.get(word.letters)
        if cached is not None:
            return cached
        factors = self.stabilizer_factorization(word)
        if factors is None:
            raise CosetError(
                f"twist word {str(word)!r} is not a product of stabilizer generators"
            )
        result = self._phi_of_factors(factors)
        self._phi_cache[word.letters] = result
        return result

    def coset_rep(self, word: Word) -> Word:
        """Fixed representative of the coset of ``word``.

        The trivial coset is represented by the empty word; otherwise the
        explicit table wins, falling back to stripping stabilizer generators
        off the tail.
        """
        cached = self._rep_cache.get(word.letters)
        if cached is not None:
            return cached
        override = self.coset_table.get(str(word))
        if override is not None:
            self._rep_cache[word.letters] = override
            return override
        rep = word
        stripped = True
        while stripped and rep.letters:
            stripped = False
            for gen in self.k_generators:
                glen = len(gen.letters)
                if glen == 0 or glen > len(rep.letters):
                    continue
                tail = rep.letters[-glen:]
                if tail == gen.letters or tail == (~gen).letters:
                    rep = Word(rep.letters[:-glen])
                    stripped = True
                    break
        self._rep_cache[word.letters] = rep
        return rep

    def twist(self, h: Word, g: Word) -> Word:
        """The stabilizer element ``x_{hgK}^-1 h x_{gK}``."""
        return ~self.coset_rep(h * g) * h * self.coset_rep(g)


# ---------------------------------------------------------------------------
# The blown-up space


@dataclass(frozen=True)
class BlownPoint:
    """A point of the blown-up space.

    Plain points keep ``height == None``; a point of the interval over an
    orbit point stores its height in ``[0, 1]``.
    """

    point: Point
    height: Fraction | None = None

    def is_interval(self) -> bool:
        return self.height is not None


class BlowupSpace:
    """A leaf space with the depth-bounded orbit of a marked point blown up."""

    def __init__(
        self,
        base: LeafSpace,
        generators: Mapping[str, Homeo],
        marked: Point,
        depth: int,
    ):
        if depth < 0:
            raise BlowupError("orbit depth must be nonnegative")
        self.base = base
        self.generators = dict(generators)
        self.marked = base.canonical(marked)
        self.depth = depth
        self.orbit: dict[Point, Word] = {}
        self._homeo_cache: dict[tuple[tuple[str, int], ...], Homeo] = {}
        self._expand_orbit()

    def _expand_orbit(self) -> None:
        steps: list[tuple[Homeo, Word]] = []
        for name in sorted(self.generators):
            h = self.generators[name]
            steps.append((h, Word(((name, 1),))))
            steps.append((invert_homeo(self.base, h), Word(((name, -1),))))
        frontier = [(self.marked, Word())]
        self.orbit[self.marked] = Word()
        for _ in range(self.depth):
            next_frontier = []
            for point, word in frontier:
                for h, letter in steps:
                    try:
                        image = apply_homeo(self.base, h, point)
                    except (ActionError, LeafSpaceError) as exc:
                        raise OrbitEscapeError(
                            f"orbit of {self.marked!r} leaves the declared "
                            f"branches at word {str(letter * word)!r}: {exc}"
                        ) from None
                    if image not in self.orbit:
                        reached = letter * word
                        self.orbit[image] = reached
                        next_frontier.append((image, reached))
            frontier = next_frontier

    # -- helpers -------------------------------------------------------------

    def word_homeo(self, word: Word) -> Homeo:
        """The cached homeo of ``word``.

        A miss composes the last letter onto the cached homeo of the rest
        of the word, fetched the same way; only the empty word is built
        from the identity.
        """
        cached = self._homeo_cache.get(word.letters)
        if cached is None:
            prefix = self.word_homeo(Word(word.letters[:-1])) if word.letters else None
            cached = word_homeo(self.base, self.generators, word, prefix=prefix)
            self._homeo_cache[word.letters] = cached
        return cached

    def classify(self) -> Classification:
        """Blowing up replaces points by intervals: ends and branching are
        untouched, so the classification is the base space's."""
        return self.base.classify()

    def midpoint(self) -> BlownPoint:
        """The marked interval at height 1/2."""
        return BlownPoint(self.marked, Fraction(1, 2))

    def contains(self, q: BlownPoint) -> bool:
        if q.is_interval():
            return q.point in self.orbit and 0 <= q.height <= 1
        return q.point not in self.orbit


# ---------------------------------------------------------------------------
# The twisted action


def alpha_apply(
    space: BlowupSpace,
    stab: StabilizerData,
    h: Word,
    q: BlownPoint,
) -> BlownPoint:
    """Act by ``h`` on a blown point.

    Plain points move by the underlying action (landing on a blown interval
    means the orbit was expanded too shallowly and raises).  Interval points
    move interval-to-interval with the coset-twisted height map.
    """
    homeo = space.word_homeo(h)
    image = apply_homeo(space.base, homeo, q.point)
    if not q.is_interval():
        if image in space.orbit:
            raise OrbitEscapeError(
                f"plain point {q.point!r} maps into a blown interval; "
                f"expand the orbit depth"
            )
        return BlownPoint(image)
    if q.point not in space.orbit:
        raise BlowupError(f"{q.point!r} is not a blown orbit point")
    if image not in space.orbit:
        raise OrbitEscapeError(
            f"image of orbit point {q.point!r} under {str(h)!r} needs depth "
            f"beyond {space.depth}"
        )
    g = space.orbit[q.point]
    twist = stab.twist(h, g)
    height_map = stab.phi_word(twist)
    new_height = height_map(q.height)
    if not (0 <= new_height <= 1):
        raise BlowupError("twist map left the unit interval")
    return BlownPoint(image, new_height)


@dataclass(frozen=True)
class ActionLawViolation:
    outer: Word
    inner: Word
    sample: BlownPoint
    combined: BlownPoint
    stepwise: BlownPoint


def validate_alpha_action(
    space: BlowupSpace,
    stab: StabilizerData,
    samples: Sequence[BlownPoint],
    ball: int,
) -> ActionLawViolation | None:
    """Exhaustively check ``alpha_{hr} == alpha_h alpha_r`` on the samples.

    Runs over every pair of reduced words with combined length ``<= ball``
    (which includes the empty word, so identity is covered).  Returns the
    first violation or ``None``.
    """
    names = sorted(space.generators)
    words = reduced_words(names, ball)
    empty = Word()
    for q in samples:
        image = alpha_apply(space, stab, empty, q)
        if image != q:
            return ActionLawViolation(empty, empty, q, image, q)
    for inner in words:
        budget = ball - len(inner)
        if budget < 0:
            continue
        mids = [alpha_apply(space, stab, inner, q) for q in samples]
        for outer in words:
            if len(outer) > budget:
                continue
            product = outer * inner
            for q, mid in zip(samples, mids):
                stepwise = alpha_apply(space, stab, outer, mid)
                combined = alpha_apply(space, stab, product, q)
                if combined != stepwise:
                    return ActionLawViolation(outer, inner, q, combined, stepwise)
    return None


def stabilizer_check(
    space: BlowupSpace,
    stab: StabilizerData,
    ball: int,
) -> Word | None:
    """Search the word ball for a nontrivial word fixing the marked midpoint.

    Mirrors the two cases of the construction: a word inside the declared
    stabilizer must move height 1/2 through phi, and a word outside it must
    move the marked point itself.  Returns the first fixing word, or ``None``
    when the midpoint's stabilizer is trivial at this scale.
    """
    for gen in stab.k_generators:
        if apply_homeo(space.base, space.word_homeo(gen), space.marked) != space.marked:
            raise BlowupError(
                f"declared stabilizer generator {str(gen)!r} moves the marked point"
            )
    half = Fraction(1, 2)
    for w in reduced_words(sorted(space.generators), ball):
        if w.is_identity():
            continue
        if stab.in_stabilizer(w):
            if stab.phi_word(w)(half) == half:
                return w
        else:
            image = apply_homeo(space.base, space.word_homeo(w), space.marked)
            if image == space.marked:
                return w
    return None


def positive_ray_orbit_search(
    space: BlowupSpace,
    stab: StabilizerData,
    e: Embedding,
    n: Fraction,
    ball: int,
) -> Word | None:
    """Find a word carrying the marked midpoint over the ray ``e((n, +oo))``.

    Scans words shortest-first; ``None`` means the ball is exhausted, which
    says nothing about longer words.
    """
    if ball > space.depth:
        raise BlowupError("search ball exceeds the expanded orbit depth")
    n = _frac(n)
    midpoint = space.midpoint()
    for w in reduced_words(sorted(space.generators), ball):
        image = alpha_apply(space, stab, w, midpoint)
        base_point = image.point
        if e.contains(space.base, base_point) and base_point.coord > n:
            return w
    return None


# ---------------------------------------------------------------------------
# Germs through the blown-up chart


def _line_insertions(space: BlowupSpace, e: Embedding) -> int:
    """Number of blown orbit points on the embedded line."""
    return sum(1 for p in space.orbit if e.contains(space.base, p))


def blown_induced_germ(
    space: BlowupSpace,
    stab: StabilizerData,
    w: Word,
    e: Embedding,
) -> Germ:
    """Induced germ of ``alpha_w`` in the chart of the blown-up line.

    The blown chart inserts a unit of length at each blown point on the
    line, so above the last insertion it is the base chart translated by
    the number ``s`` of insertions, and the blown germ is the base induced
    germ conjugated by that translation: ``Germ(1, s) * d(w) * Germ(1, s)^-1``.
    """
    shift = Germ(1, _line_insertions(space, e))
    return shift * induced_germ(space.base, space.word_homeo(w), e) * ~shift


def injectivity_certificate(
    space: BlowupSpace,
    stab: StabilizerData,
    e: Embedding,
    ball: int,
) -> Word | None:
    """Certify that no nontrivial ball word has trivial blown germ.

    For each word the blown germ must differ from the identity and, as a
    cross-check, the word must move plain line points at arbitrarily large
    sampled coordinates.  Returns the first failing word or ``None``.
    """
    names = sorted(space.generators)
    shift = Germ(1, _line_insertions(space, e))
    for w in reduced_words(names, ball):
        if w.is_identity():
            continue
        germ = blown_induced_germ(space, stab, w, e)
        if germ.is_identity():
            return w
        # The probes live in the base chart, so bound the diagonal crossing
        # with the germ conjugated back into it, above every base event.
        base_germ = ~shift * germ * shift
        h = space.word_homeo(w)
        events = _ray_events(space.base, h, e)
        start = max(events) if events else Fraction(0)
        start = max(start, eventual_comparison_bound(base_germ))
        for offset in (1, 1000):
            x = start + offset
            if apply_homeo(space.base, h, e.point_at(space.base, x)) == e.point_at(space.base, x):
                return w
    return None
