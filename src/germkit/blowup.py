"""Blowing up a marked orbit and the coset-twisted action on the result.

Each point of the (depth-bounded) orbit of a marked point is replaced by a
unit interval.  A word ``h`` acts on plain points through the underlying
action; an interval point over ``g(marked)`` at height ``t`` is carried to
the interval over ``hg(marked)`` at height ``phi(x_{hgK}^-1 h x_{gK})(t)``,
where ``K`` is the declared stabilizer of the marked point, ``phi`` realizes
``K`` on the unit interval, and ``x_{gK}`` is the fixed representative of the
coset ``gK``.  The twist word always lies in ``K``, which is what makes the
assignment independent of how the interval was reached.  ``K`` is free on
letters of the action, so membership, factorization and the default coset
representatives all read one table of ``K`` letters.  A :class:`BlowupSpace`
carries this data, checked by :func:`check_stabilizer_fits`, so the action
and its checks read all of it from the space.

The orbit is expanded lazily to a fixed word depth; applications that would
need deeper orbit points raise :class:`OrbitEscapeError` rather than guess.

The action is implemented once, by :func:`alpha_apply_all`, which applies
one word to a sequence of points: it fetches the word's homeo once and each
orbit point's height map once per call.  :func:`alpha_apply` is its
one-point case.  :func:`validate_alpha_action` checks the action law by
walking the word ball as a suffix trie: each word's images of the samples
are computed once and shared by every split of every word that ends in it,
and only the current word's suffixes keep their images, at most
``ball + 1`` lists.  On any mismatch or error it reruns the ordered
pair-by-pair loop, whose first violation or first error it then reports;
every image is a deterministic function of the word and the points, so
this gives the ordered loop's answer.  Base points and heights travel as
reduced integer pairs: the homeo moves a point through
:func:`~germkit.action.apply_homeo`, the height map through the
``PLMap`` integer entry, and the images are compared on ints, so once the
homeos and height maps are cached an application builds no ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from .action import (
    ActionError,
    Homeo,
    Word,
    apply_homeo,
    induced_germ,
    letter_homeo,
    line_image,
    reduced_words,
    word_homeo,
    _ray_events,
)
from .germ import Germ, eventual_comparison_bound
from .leafspace import Classification, Embedding, LeafSpace, LeafSpaceError, Point
from .plmap import PLMap, RationalLike, _frac


class BlowupError(ValueError):
    """Invalid blow-up data."""


class OrbitEscapeError(BlowupError):
    """An application needs an orbit point beyond the expanded depth."""


class CosetError(BlowupError):
    """A coset representative or twist word is not where it should be."""


class CosetTableError(CosetError):
    """The ``coset_table`` entry ``key`` is unusable: its ``part``, ``"word"``
    or ``"rep"``, breaks a rule of :class:`StabilizerData`."""

    def __init__(self, key: str, part: str, message: str):
        super().__init__(message)
        self.key = key
        self.part = part


class StabilizerGeneratorError(BlowupError):
    """Declared stabilizer generator ``index`` is not a letter of its own,
    not a declared generator, or moves the marked point."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# Stabilizer data


@dataclass
class StabilizerData:
    """Declared stabilizer ``K`` of the marked point, with its interval realization.

    Each of ``k_generators`` is one letter of the action (``"k"`` or
    ``"k^-1"``), no two on one generator name, else
    :class:`StabilizerGeneratorError`.  So ``K`` is the free factor on those
    letters: a reduced word lies in ``K`` exactly when each of its letters
    does, and its factorization is its letters.  ``phi`` maps each generator
    (keyed by its text form) to a PL map fixing ``[0, 1]`` pointwise outside
    and ``0``/``1`` inside.  The default representative of a coset ``gK``
    is ``g`` with its trailing ``K`` letters stripped; ``coset_table`` maps
    the text of a reduced word, as ``str`` prints it, to the representative
    used for that word alone, which must lie in the word's coset.  A key
    written any other way, or a representative outside its key's coset,
    raises :class:`CosetTableError` naming the key.
    """

    k_generators: tuple[Word, ...]
    phi: Mapping[str, PLMap]
    coset_table: Mapping[str, Word] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.k_generators = tuple(self.k_generators)
        self.phi = dict(self.phi)
        self.coset_table = dict(self.coset_table)
        self._phi_cache: dict[tuple[tuple[str, int], ...], PLMap] = {}
        # each K letter and its inverse -> (phi key, exponent)
        self._letters: dict[tuple[str, int], tuple[str, int]] = {}
        for i, gen in enumerate(self.k_generators):
            if len(gen.letters) != 1 or gen.letters[0] in self._letters:
                raise StabilizerGeneratorError(
                    i, f"stabilizer generator {str(gen)!r} is not a letter of its own"
                )
            key = str(gen)
            if key not in self.phi:
                raise BlowupError(f"phi is missing stabilizer generator {key!r}")
            (name, exp), = gen.letters
            self._letters[name, exp] = (key, 1)
            self._letters[name, -exp] = (key, -1)
        # the table keyed by letters, so a lookup prints no word
        self._coset_letters: dict[tuple[tuple[str, int], ...], Word] = {}
        for key, rep in self.coset_table.items():
            try:
                word = Word.parse(key)
            except ActionError as exc:
                raise CosetTableError(key, "word", f"coset table word {key!r}: {exc}") from None
            if str(word) != key:
                raise CosetTableError(
                    key, "word",
                    f"coset table word {key!r} is not written as the reduced word {str(word)!r}",
                )
            if not self.in_stabilizer(~word * rep):
                raise CosetTableError(
                    key, "rep",
                    f"coset table representative {str(rep)!r} is not in the coset of {key!r}",
                )
            self._coset_letters[word.letters] = rep

    # -- the unit-interval realization --------------------------------------

    def validate_phi(self, ball: int) -> str | None:
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
        """``word`` as a product of stabilizer generators, one factor per
        letter; ``None`` when a letter is not in ``K``."""
        try:
            return tuple(self._letters[letter] for letter in word.letters)
        except KeyError:
            return None

    def in_stabilizer(self, word: Word) -> bool:
        return all(letter in self._letters for letter in word.letters)

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
        """Fixed representative of the coset ``word K``.

        The ``coset_table`` entry for ``word``'s text wins, looked up by
        ``word``'s letters since each key is its word's text; otherwise
        ``word`` with its trailing ``K`` letters stripped, so every word of
        ``K`` is represented by the empty word.
        """
        if self._coset_letters:
            override = self._coset_letters.get(word.letters)
            if override is not None:
                return override
        letters = word.letters
        n = len(letters)
        while n and letters[n - 1] in self._letters:
            n -= 1
        return word if n == len(letters) else Word(letters[:n])

    def twist(self, h: Word, g: Word) -> Word:
        """The stabilizer element ``x_{hgK}^-1 h x_{gK}``, built as one word."""
        inverse = tuple((name, -exp) for name, exp in reversed(self.coset_rep(h * g).letters))
        return Word(inverse + h.letters + self.coset_rep(g).letters)


def check_stabilizer_fits(
    base: LeafSpace, generators: Mapping[str, Homeo], marked: Point, stabilizer: StabilizerData
) -> None:
    """Raise :class:`StabilizerGeneratorError` unless each ``K`` generator is
    a declared generator fixing the canonical point ``marked``, and
    :class:`CosetTableError` unless each ``coset_table`` word uses only
    declared generators, as a representative in its word's coset then does."""
    for i, w in enumerate(stabilizer.k_generators):
        name, exp = w.letters[0]
        if name not in generators:
            problem = "is not a declared generator"
        elif apply_homeo(base, letter_homeo(generators, name, exp), marked) != marked:
            problem = "moves the marked point"
        else:
            continue
        raise StabilizerGeneratorError(i, f"stabilizer generator {str(w)!r} {problem}")
    for key in stabilizer.coset_table:
        undeclared = [name for name, _ in Word.parse(key).letters if name not in generators]
        if undeclared:
            raise CosetTableError(
                key, "word", f"coset table word {key!r} names undeclared generator {undeclared[0]!r}"
            )


# ---------------------------------------------------------------------------
# The blown-up space


class BlownPoint:
    """A point of the blown-up space.

    Plain points keep ``height == None``; a point of the interval over an
    orbit point has its height in ``[0, 1]``.  Like :class:`Point`, the
    height is stored as its reduced numerator and denominator: ``.height``
    is the ``Fraction`` given, or one built on the first read and kept, and
    ``==`` compares the points and the integer heights.
    :func:`alpha_apply_all` builds its images through :meth:`_of`, so it
    builds no ``Fraction``.  ``point`` and ``height`` are read-only.
    """

    __slots__ = ("_point", "_h", "_height")

    def __init__(self, point: Point, height: RationalLike | None = None):
        if height is not None:
            height = _frac(height)
            self._h = (height.numerator, height.denominator)
        else:
            self._h = None
        self._point, self._height = point, height

    @classmethod
    def _of(cls, point: Point, n: int, d: int) -> "BlownPoint":
        """The interval point over ``point`` at height ``n/d``, for any pair
        with ``d > 0``, reduced by one ``gcd``."""
        g = gcd(n, d)
        q = object.__new__(cls)
        q._point, q._h, q._height = point, (n // g, d // g), None
        return q

    @property
    def point(self) -> Point:
        return self._point

    @property
    def height(self) -> Fraction | None:
        height = self._height
        if height is None and self._h is not None:
            height = self._height = Fraction(*self._h)
        return height

    def is_interval(self) -> bool:
        return self._h is not None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._h == other._h and self._point == other._point

    def __hash__(self) -> int:
        return hash((self._point, self.height))

    def __repr__(self) -> str:
        return f"BlownPoint(point={self._point!r}, height={self.height!r})"


class BlowupSpace:
    """A leaf space with the depth-bounded orbit of a marked point blown up,
    carrying the :class:`StabilizerData` that twists the action on it."""

    def __init__(
        self,
        base: LeafSpace,
        generators: Mapping[str, Homeo],
        marked: Point,
        depth: int,
        stabilizer: StabilizerData,
    ):
        if depth < 0:
            raise BlowupError("orbit depth must be nonnegative")
        self.base = base
        self.generators = dict(generators)
        self.marked = base.canonical(marked)
        check_stabilizer_fits(base, generators, self.marked, stabilizer)
        self.depth = depth
        self.stabilizer = stabilizer
        self.orbit: dict[Point, Word] = {}
        self._homeo_cache: dict[tuple[tuple[str, int], ...], Homeo] = {}
        self._expand_orbit()

    def _expand_orbit(self) -> None:
        steps: list[tuple[Homeo, Word]] = []
        for name in sorted(self.generators):
            h = self.generators[name]
            steps.append((h, Word(((name, 1),))))
            steps.append((letter_homeo(self.generators, name, -1), Word(((name, -1),))))
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


def alpha_apply_all(
    space: BlowupSpace,
    h: Word,
    qs: Iterable[BlownPoint],
) -> Iterator[BlownPoint]:
    """Act by ``h`` on each blown point of ``qs``, yielding the images lazily.

    Plain points move by the underlying action (landing on a blown interval
    means the orbit was expanded too shallowly and raises).  Interval points
    move interval-to-interval with the coset-twisted height map.

    The homeo of ``h`` is fetched once, when the first image is asked for,
    and the height map ``phi(twist(h, g))`` once per orbit point ``g(marked)``
    met; neither outlives the generator.  Each image is computed only when it
    is asked for, so a caller that stops early sees exactly the errors that
    applying ``h`` to the points one at a time, up to there, would raise.
    """
    homeo = space.word_homeo(h)
    base, orbit, stab = space.base, space.orbit, space.stabilizer
    height_maps: dict[Point, PLMap] = {}
    for q in qs:
        image = apply_homeo(base, homeo, q.point)
        if q._h is None:
            if image in orbit:
                raise OrbitEscapeError(
                    f"plain point {q.point!r} maps into a blown interval; "
                    f"expand the orbit depth"
                )
            yield BlownPoint(image)
            continue
        if q.point not in orbit:
            raise BlowupError(f"{q.point!r} is not a blown orbit point")
        if image not in orbit:
            raise OrbitEscapeError(
                f"image of orbit point {q.point!r} under {str(h)!r} needs depth "
                f"beyond {space.depth}"
            )
        height_map = height_maps.get(q.point)
        if height_map is None:
            height_map = stab.phi_word(stab.twist(h, orbit[q.point]))
            height_maps[q.point] = height_map
        n, d = height_map._eval(*q._h)
        if not 0 <= n <= d:
            raise BlowupError("twist map left the unit interval")
        yield BlownPoint._of(image, n, d)


def alpha_apply(
    space: BlowupSpace,
    h: Word,
    q: BlownPoint,
) -> BlownPoint:
    """Act by ``h`` on one blown point; see :func:`alpha_apply_all`."""
    return next(alpha_apply_all(space, h, (q,)))


@dataclass(frozen=True)
class ActionLawViolation:
    outer: Word
    inner: Word
    sample: BlownPoint
    combined: BlownPoint
    stepwise: BlownPoint


def validate_alpha_action(
    space: BlowupSpace,
    samples: Sequence[BlownPoint],
    ball: int,
) -> ActionLawViolation | None:
    """Exhaustively check ``alpha_{hr} == alpha_h alpha_r`` on the samples.

    Runs over every pair of reduced words with combined length ``<= ball``
    (which includes the empty word, so identity is covered).  Returns the
    first violation or ``None``.

    Each word acts on the whole sample list through one
    :func:`alpha_apply_all` call.  The stepwise route applies ``outer`` to
    ``inner``'s images and the combined route applies the product word's own
    homeo and twists, so the two stay independent.

    The check first runs :func:`_law_holds`, which computes each word's
    images once, checks every pair against them, and holds at most
    ``ball + 1`` image lists at a time.  When that pass finds
    no mismatch and nothing raises, the answer is ``None``.  Otherwise the
    ordered loop :func:`_first_violation` runs from the start, so the first
    violation and the first error raised are those of checking the samples
    one by one, in the order of the word list.  This is exact because every
    image is a deterministic function of the word and the points' values,
    and the ordered loop computes only images that the pass has computed
    and compares only pairs that the pass has compared: if none of them
    raised or differed in the pass, none does in the loop.
    """
    if not samples:  # then no word is applied, nor its homeo fetched
        return None
    try:
        if _law_holds(space, samples, ball):
            return None
    except Exception:  # the ordered loop raises it again, or fails earlier
        pass
    return _first_violation(space, samples, ball)


def _agree(stepwise: Iterable[BlownPoint], combined: Iterable[BlownPoint]) -> bool:
    return all(s == c for s, c in zip(stepwise, combined))


def _law_holds(
    space: BlowupSpace,
    samples: Sequence[BlownPoint],
    ball: int,
) -> bool:
    """Whether every pair of :func:`validate_alpha_action` agrees, in one
    walk of the word ball as a suffix trie.

    Each step of the walk prepends one letter to a word, and each word
    ``w``'s images ``alpha_apply_all(w, samples)`` are computed once.  The
    walk is depth-first on an explicit stack of letter tuples; beside it
    only the images of the current word's suffixes are kept, so at most
    ``ball + 1`` image lists are alive at a time.  At ``w`` the walk
    checks each split ``w = o·i`` (``o`` applied to ``i``'s images against
    ``w``'s) and each ``o`` of length ``<= ball - len(w)`` whose last letter
    cancels ``w``'s first (``o`` applied to ``w``'s images against fresh
    images of the product ``o * w``).  Every pair of the ordered loop is one
    of these, exactly once.  An error propagates to the caller.
    """
    names = sorted(space.generators)
    words = {w.letters: w for w in reduced_words(names, ball)}
    ending: dict[tuple[str, int], list[Word]] = {}  # outer words by last letter, shortest first
    for w in words.values():
        if w.letters:
            ending.setdefault(w.letters[-1], []).append(w)
    root = list(alpha_apply_all(space, Word(), samples))
    if root != list(samples):
        return False
    backwards = [(n, -1) for n in reversed(names)] + [(n, 1) for n in reversed(names)]
    chain: list[list[BlownPoint]] = []  # chain[k]: images of the current word's suffix of length k
    stack = [()] if ball >= 0 else []  # words still to walk, as letter tuples
    while stack:
        letters = stack.pop()
        n = len(letters)
        del chain[n:]
        chain.append(list(alpha_apply_all(space, words[letters], samples)) if n else root)
        images = chain[n]
        for k, mids in enumerate(chain):
            if not _agree(alpha_apply_all(space, words[letters[:n - k]], mids), images):
                return False
        cancel = (letters[0][0], -letters[0][1]) if n else None
        for outer in ending.get(cancel, ()):
            if len(outer) > ball - n:
                break
            stepwise = alpha_apply_all(space, outer, images)
            if not _agree(stepwise, alpha_apply_all(space, outer * words[letters], samples)):
                return False
        if n < ball:
            stack.extend((a,) + letters for a in backwards if a != cancel)
    return True


def _first_violation(
    space: BlowupSpace,
    samples: Sequence[BlownPoint],
    ball: int,
) -> ActionLawViolation | None:
    """The ordered loop of :func:`validate_alpha_action`: inner words in
    list order, then outer words, each pair advancing one sample at a time,
    stepwise before combined."""
    names = sorted(space.generators)
    words = reduced_words(names, ball)
    empty = Word()
    for q, image in zip(samples, alpha_apply_all(space, empty, samples)):
        if image != q:
            return ActionLawViolation(empty, empty, q, image, q)
    for inner in words:
        budget = ball - len(inner)
        if budget < 0:
            continue
        mids = list(alpha_apply_all(space, inner, samples))
        for outer in words:
            if len(outer) > budget:
                continue
            stepwise_all = alpha_apply_all(space, outer, mids)
            combined_all = alpha_apply_all(space, outer * inner, samples)
            for q, stepwise, combined in zip(samples, stepwise_all, combined_all):
                if combined != stepwise:
                    return ActionLawViolation(outer, inner, q, combined, stepwise)
    return None


def stabilizer_check(
    space: BlowupSpace,
    ball: int,
) -> Word | None:
    """Search the word ball for a nontrivial word fixing the marked midpoint.

    Mirrors the two cases of the construction: a word inside ``K``, whose
    generators the space checked to fix the marked point, must move height
    1/2 through phi, and one outside must move the marked point.  Returns
    the first fixing word, or ``None`` when it finds none at this scale.
    """
    stab = space.stabilizer
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
        image = alpha_apply(space, w, midpoint)
        base_point = image.point
        if e.contains(space.base, base_point) and base_point.coord > n:
            return w
    return None


# ---------------------------------------------------------------------------
# Germs through the blown-up chart


def _insertion_shift(space: BlowupSpace, e: Embedding) -> Germ:
    """The translation by the number of blown orbit points on the embedded line."""
    return Germ(1, sum(1 for p in space.orbit if e.contains(space.base, p)))


def _blown(shift: Germ, base_germ: Germ) -> Germ:
    """``base_germ`` in the blown chart, whose insertions translate by ``shift``."""
    return shift * base_germ * ~shift


def blown_induced_germ(space: BlowupSpace, w: Word, e: Embedding) -> Germ:
    """Induced germ of ``alpha_w`` in the chart of the blown-up line.

    The blown chart inserts a unit of length at each blown point on the
    line, so above the last insertion it is the base chart translated by
    the number ``s`` of insertions, and the blown germ is the base induced
    germ conjugated by that translation: ``Germ(1, s) * d(w) * Germ(1, s)^-1``.
    """
    return _blown(_insertion_shift(space, e), induced_germ(space.base, space.word_homeo(w), e))


def injectivity_certificate(space: BlowupSpace, e: Embedding, ball: int) -> Word | None:
    """Certify that no nontrivial ball word has trivial blown germ.

    For each word the blown germ must differ from the identity and, as a
    cross-check, the word must move plain line points at arbitrarily large
    sampled coordinates.  Returns the first failing word or ``None``.  The
    orbit is scanned for line insertions once, and each word's blown germ
    is its base germ conjugated as in :func:`blown_induced_germ`.
    """
    names = sorted(space.generators)
    shift = _insertion_shift(space, e)
    for w in reduced_words(names, ball):
        if w.is_identity():
            continue
        h = space.word_homeo(w)
        base_germ = induced_germ(space.base, h, e)
        if _blown(shift, base_germ).is_identity():
            return w
        # The probes live in the base chart, so bound the diagonal crossing
        # with the base germ, above every base event.
        events = _ray_events(space.base, h, e)
        start = max(events) if events else Fraction(0)
        start = max(start, eventual_comparison_bound(base_germ))
        for x in (start + 1, start + 1000):
            if line_image(space.base, h, e, x) == (x.numerator, x.denominator):
                return w
    return None
