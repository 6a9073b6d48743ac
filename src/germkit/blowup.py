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
carries this data, checked by :func:`check_stabilizer_fits`, and its generators,
validated once, so the action and its checks read all of it from the space.

The orbit is expanded lazily to a fixed word depth; applications that would
need deeper orbit points raise :class:`OrbitEscapeError` rather than guess.

The action is implemented once, by the kernel :func:`_move_keys`, which
moves a list of blown points, given as integer keys, by one word: it
fetches the word's homeo once per call and moves all the plain points in
one batch call of the underlying action, and the space keeps, beside that
homeo, the word's move of each orbit point it has met (the image point and
the height map), so a later interval point over that orbit point only
evaluates the height map.  The public :func:`alpha_apply_all` and
:func:`alpha_apply` pass it one point at a time.

:func:`validate_alpha_action` checks the action law in one pass over the
pairs of words, in the order of the per-point loop, so its first violation
or first error is that loop's.  Each word of the ball moves the samples
once, in one kernel call, the empty word first, and the check holds that
image list, one per ball word, until it returns; every other pair moves
one of those lists by one word and compares it with the product word's
held list.

Inside the kernel a blown point is a tuple of ints, ``(branch, n, d)`` for
a plain point and ``(branch, n, d, hn, hd)`` for an interval point, all
reduced, and the space keeps its orbit under the same keys.  The homeo
moves plain points through :func:`~germkit.action._apply_pairs`, the batch
form of :func:`~germkit.action.apply_homeo`, the height map through the
``PLMap`` integer entry, and the law check compares whole image lists of
tuples, so once the homeos and moves are kept a check builds no ``Point``
and no ``Fraction``.
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
    compose_homeo,
    identity_homeo,
    induced_germ,
    letter_homeo,
    line_image,
    reduced_words,
    validate_homeo,
    _apply_pairs,
    _ray_event_set,
)
from .germ import Germ, eventual_comparison_bound
from .leafspace import Classification, Embedding, LeafSpace, Point
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
    (keyed by its text form) to a PL map that fixes ``0`` and ``1``, has
    slope 1 outside ``[0, 1]`` and no breakpoint outside it, so it is the
    identity there; a map breaking one of these rules raises
    :class:`BlowupError` naming its key.  The default representative of a
    coset ``gK`` is ``g`` with its trailing ``K`` letters stripped;
    ``coset_table`` maps the text of a reduced word, as ``str`` prints it,
    to the representative used for that word alone, which must lie in the
    word's coset.  A key written any other way, or a representative outside
    its key's coset, raises :class:`CosetTableError` naming the key.
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
        for key, pl in self.phi.items():
            if pl(0) != 0 or pl(1) != 1:
                raise BlowupError(f"phi[{key!r}] does not fix 0 and 1")
            if pl.left_slope != 1 or pl.right_slope != 1:
                raise BlowupError(f"phi[{key!r}] is not the identity outside [0, 1]")
            if pl.breakpoints and (pl.breakpoints[0] < 0 or pl.breakpoints[-1] > 1):
                raise BlowupError(f"phi[{key!r}] moves points outside [0, 1]")
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
        result = PLMap.identity()
        for name, exp in factors:
            pl = self.phi[name]
            result = result * (pl if exp == 1 else ~pl)
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
        return word if n == len(letters) else Word._reduced(letters[:n])

    def twist(self, h: Word, g: Word) -> Word:
        """The stabilizer element ``x_{hgK}^-1 h x_{gK}``."""
        return ~self.coset_rep(h * g) * h * self.coset_rep(g)


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
    ``==`` and ``hash`` read the points and the integer heights.  The
    action builds its images from integer keys (:meth:`_from_key`), so it
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

    def _key(self) -> tuple:
        """The point as :func:`_move_keys` takes it: ``(branch, n, d)`` for a
        plain point, ``(branch, n, d, hn, hd)`` for an interval point, all
        reduced."""
        p = self._point
        if self._h is None:
            return p._branch, p._n, p._d
        return (p._branch, p._n, p._d, *self._h)

    @classmethod
    def _from_key(cls, key: tuple) -> "BlownPoint":
        """The blown point of a reduced key; see :meth:`_key`."""
        q = object.__new__(cls)
        q._point, q._h, q._height = Point._of(*key[:3]), key[3:] or None, None
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
        return hash((self._point, self._h))

    def __repr__(self) -> str:
        return f"BlownPoint(point={self._point!r}, height={self.height!r})"


class BlowupSpace:
    """A leaf space with the depth-bounded orbit of a marked point blown up,
    carrying the :class:`StabilizerData` that twists the action on it.

    Each generator is checked once, here, by
    :func:`~germkit.action.validate_homeo` on ``base``; a failure raises
    :class:`BlowupError` naming it.  The space keeps one entry per word it
    has acted by: the word's homeo (:meth:`word_homeo`) and the moves of
    the orbit points it has met (:func:`_move_keys`).  Both live as long as
    the space.  Beside ``orbit`` it keeps the same points keyed by their
    integer triples, ``(branch, n, d)``, which is what :func:`_move_keys`
    looks up; each kept move holds the index's own key objects, not copies.
    """

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
        for name, h in self.generators.items():
            problem = validate_homeo(base, h)
            if problem is not None:
                raise BlowupError(
                    f"generator {name!r} is not a homeomorphism of the leaf space: {problem}"
                )
        check_stabilizer_fits(base, generators, self.marked, stabilizer)
        self.depth = depth
        self.stabilizer = stabilizer
        self.orbit: dict[Point, Word] = {}
        # word letters -> (the word's homeo, its moves: orbit key ->
        # (image key, height map)), opened together and kept together
        self._word_cache: dict[
            tuple[tuple[str, int], ...],
            tuple[Homeo, dict[tuple[str, int, int], tuple[tuple[str, int, int], PLMap]]],
        ] = {(): (identity_homeo(base), {})}
        self._expand_orbit()

    def _expand_orbit(self) -> None:
        steps = [
            (letter_homeo(self.generators, name, exp), Word._reduced(((name, exp),)))
            for name in sorted(self.generators) for exp in (1, -1)
        ]
        frontier = [(self.marked, Word())]
        self.orbit[self.marked] = Word()
        for _ in range(self.depth):
            next_frontier = []
            for point, word in frontier:
                for h, letter in steps:
                    image = apply_homeo(self.base, h, point)
                    if image not in self.orbit:
                        reached = letter * word
                        self.orbit[image] = reached
                        next_frontier.append((image, reached))
            frontier = next_frontier
        # each orbit key -> (that key, its word); kept moves share these keys
        self._orbit_keys: dict[tuple[str, int, int], tuple[tuple[str, int, int], Word]] = {}
        for p, w in self.orbit.items():
            key = p._branch, p._n, p._d
            self._orbit_keys[key] = key, w

    # -- helpers -------------------------------------------------------------

    def word_homeo(self, word: Word) -> Homeo:
        """The cached homeo of ``word``.

        A miss composes the last letter onto the cached homeo of the rest
        of the word, fetched the same way; the empty word's entry, the
        identity, is made with the space.  A miss also opens the word's
        empty table of moves.  The composite is not validated, since the
        generators were and composition and inversion preserve each
        condition :func:`~germkit.action.validate_homeo` checks: a
        bijection of the declared branches, increasing canonical chart
        maps, child and parent charts agreeing above each departure, and
        image branches sharing from exactly the mapped departure.
        """
        entry = self._word_cache.get(word.letters)
        if entry is None:
            prefix = self.word_homeo(Word._reduced(word.letters[:-1]))
            homeo = compose_homeo(prefix, letter_homeo(self.generators, *word.letters[-1]))
            entry = self._word_cache[word.letters] = (homeo, {})
        return entry[0]

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


def _move_keys(space: BlowupSpace, word: Word, keys: Sequence[tuple]) -> list[tuple]:
    """The images of blown points under ``word``, as reduced integer keys.

    Each key is a plain point ``(branch, n, d)`` or an interval point
    ``(branch, n, d, hn, hd)`` (:meth:`BlownPoint._key`), and each image is
    one of the same kind.  This is the one place the twisted action's
    arithmetic is done.  Plain points move by the underlying action, all of
    them in one :func:`~germkit.action._apply_pairs` call, and must not land
    on the orbit (the orbit was expanded too shallowly).  An interval point
    over the orbit point ``g(marked)`` moves to the interval over its image
    at the height ``phi(twist(word, g))`` gives, which must stay in
    ``[0, 1]``; orbit membership is read off the space's integer-key index.

    The word's homeo is fetched once per call.  Its move of an orbit point,
    the image key and the height map, is computed the first time an
    interval point over that point is met, after the point and its image
    pass the orbit checks, and the space keeps it beside the homeo for its
    own lifetime, so a later interval point over it only evaluates the
    height map.  A move that raised is never kept.

    Any error raises and no image is returned.  With more than one key,
    which point's error is raised is not specified: callers that need the
    first error in the order of the points pass one key at a time.
    """
    homeo = space.word_homeo(word)
    moves = space._word_cache[word.letters][1]
    orbit = space._orbit_keys
    plain = [key for key in keys if len(key) == 3]
    moved = _apply_pairs(space.base, homeo, plain) if plain else []
    if not orbit.keys().isdisjoint(moved):
        key = next(key for key, image in zip(plain, moved) if image in orbit)
        raise OrbitEscapeError(
            f"plain point {Point._of(*key)!r} maps into a blown interval; "
            f"expand the orbit depth"
        )
    moved = iter(moved)
    out = []
    for key in keys:
        if len(key) == 3:
            out.append(next(moved))
            continue
        point = key[:3]
        move = moves.get(point)
        if move is None:
            (image,) = _apply_pairs(space.base, homeo, (point,))
            if point not in orbit:
                raise BlowupError(f"{Point._of(*point)!r} is not a blown orbit point")
            if image not in orbit:
                raise OrbitEscapeError(
                    f"image of orbit point {Point._of(*point)!r} under {str(word)!r} "
                    f"needs depth beyond {space.depth}"
                )
            (point, reached), image = orbit[point], orbit[image][0]
            stab = space.stabilizer
            move = moves[point] = image, stab.phi_word(stab.twist(word, reached))
        (branch, pn, pd), height_map = move
        n, d = height_map._eval(key[3], key[4])
        if not 0 <= n <= d:
            raise BlowupError("twist map left the unit interval")
        g = gcd(n, d)
        out.append((branch, pn, pd, n // g, d // g))
    return out


def alpha_apply_all(
    space: BlowupSpace,
    h: Word,
    qs: Iterable[BlownPoint],
) -> Iterator[BlownPoint]:
    """Act by ``h`` on each blown point of ``qs``, yielding the images lazily.

    Plain points move by the underlying action (landing on a blown interval
    means the orbit was expanded too shallowly and raises).  Interval points
    move interval-to-interval with the coset-twisted height map.

    Each point goes through :func:`_move_keys` on its own, when its image
    is asked for, so the space keeps each move as that function says, and a
    caller that stops early sees exactly the errors that applying ``h`` to
    the points one at a time, up to there, would raise.
    """
    for q in qs:
        (image,) = _move_keys(space, h, (q._key(),))
        yield BlownPoint._from_key(image)


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
    (which includes the empty word, so identity is covered), inner words
    in list order, then outer words, each pair advancing one sample at a
    time, stepwise before combined.  Returns the first violation or
    ``None``; what raises is the first error in that order.

    The samples become integer keys once (:meth:`BlownPoint._key`), and
    each word of the ball moves them once, in one :func:`_move_keys` call:
    these are the pairs of inner ``1``, which come first in the order, and
    the empty word's images, the identity pass, are checked as soon as
    they are moved.  The check holds these lists, one per ball word, until
    it returns; that is its memory beside the homeos and moves the space
    keeps for every word.  Each other pair moves the inner word's list by
    the outer word in one call and compares it whole with the product
    word's held list.  The stepwise route applies ``outer`` to ``inner``'s
    images and the combined route is the product word's own moves, built
    from its own homeo and twists, never from its factors' moves, so the
    two stay independent.  A list that raises, or a pair whose lists
    differ, is moved again one key at a time through :func:`_move_keys`,
    which raises the first error or finds the first violation; every image
    is a deterministic function of the word and the point, so lists that
    agree without an error mean that the pair has neither.
    """
    if not samples:  # then no word is applied, nor its homeo fetched
        return None
    words = reduced_words(sorted(space.generators), ball)
    keys = [q._key() for q in samples]
    images = {}
    for w in words:  # the empty word first
        try:
            moved = _move_keys(space, w, keys)
        except Exception:  # raised again below, at the first point that raises
            moved = (_move_keys(space, w, (key,))[0] for key in keys)
        if w.letters:
            images[w.letters] = list(moved)
            continue
        for q, key, image in zip(samples, keys, moved):
            if image != key:
                return ActionLawViolation(w, w, q, BlownPoint._from_key(image), q)
        images[()] = keys
    for inner in words[1:]:
        mids = images[inner.letters]
        for outer in words:
            if len(outer) > ball - len(inner):
                break
            held = images[(outer * inner).letters]
            try:
                if _move_keys(space, outer, mids) == held:
                    continue
            except Exception:  # found again below, in order
                pass
            for q, mid, combined in zip(samples, mids, held):
                (stepwise,) = _move_keys(space, outer, (mid,))
                if combined != stepwise:
                    combined, stepwise = map(BlownPoint._from_key, (combined, stepwise))
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


def blown_induced_germ(space: BlowupSpace, w: Word, e: Embedding) -> Germ:
    """Induced germ of ``alpha_w`` in the chart of the blown-up line.

    The blown chart inserts a unit of length at each blown point on the
    line, so above the last insertion it is the base chart translated by
    the number ``s`` of insertions, and the blown germ is the base induced
    germ conjugated by that translation: ``Germ(1, s) * d(w) * Germ(1, s)^-1``.
    A conjugate of ``d(w)`` is the identity exactly when ``d(w)`` is, which
    is why :func:`injectivity_certificate` tests ``d(w)`` itself; this
    chart is the independent route to the same verdict.
    """
    shift = Germ(1, sum(1 for p in space.orbit if e.contains(space.base, p)))
    return shift * induced_germ(space.base, space.word_homeo(w), e) * ~shift


def injectivity_certificate(space: BlowupSpace, e: Embedding, ball: int) -> Word | None:
    """Certify that no nontrivial ball word has trivial blown germ.

    The blown germ of a word is its base germ ``d(w)``, the default
    :func:`~germkit.action.induced_germ`, conjugated by the translation
    ``x -> x + s`` (:func:`blown_induced_germ`), so it is trivial exactly
    when ``d(w)`` is, and the certificate tests ``d(w)``: no orbit scan and
    no conjugation.  As a cross-check the word must also move plain line
    points at two large coordinates, above its largest ray event, the
    maximum of the unsorted event set by cross-multiplication, which is not
    kept, so the sweep leaves no ray record on its word homeos; ``d(w)`` is
    the root chart's tail, so those probes stay an independent route.
    Returns the first failing word or ``None``.  An undeclared ``e``
    raises :class:`~germkit.leafspace.LeafSpaceError` at every ball.
    """
    space.base.chain_to_root(e.branch)  # checks that e's branch is declared
    for w in reduced_words(sorted(space.generators), ball):
        if w.is_identity():
            continue
        h = space.word_homeo(w)
        base_germ = induced_germ(space.base, h, e)
        if base_germ.is_identity():
            return w
        events = iter(_ray_event_set(space.base, h, e))
        tn, td = next(events, (0, 1))
        for n, d in events:
            if n * td > tn * d:
                tn, td = n, d
        # Bound the diagonal crossing with the base germ, above every event.
        start = max(Fraction(tn, td), eventual_comparison_bound(base_germ))
        for x in (start + 1, start + 1000):
            if line_image(space.base, h, e, x) == (x.numerator, x.denominator):
                return w
    return None
