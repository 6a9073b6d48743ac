"""Points on reduced ints through the action layer.

``Point`` and ``BlownPoint`` store their coordinate and height as a reduced
numerator and denominator, and ``apply_homeo``, ``LeafSpace.canonical``,
``Embedding.contains`` and the twisted action's heights run on those ints.
The ``Fraction`` bodies they replaced are kept here as ``oracle_*`` and the
new code is compared against them on seeded random spaces and homeos and on
the bundled examples.  A counter on ``Fraction.__new__`` pins that the
integer route builds no ``Fraction``.
"""

from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from germkit.action import (
    ActionError,
    Homeo,
    apply_homeo,
    invert_homeo,
    reduced_words,
    validate_homeo,
    word_homeo,
)
from germkit.blowup import (
    BlowupError,
    BlownPoint,
    OrbitEscapeError,
    alpha_apply_all,
    validate_alpha_action,
)
from germkit.examples import bundle
from germkit.fuzz import CaseGen
from germkit.leafspace import Embedding, LeafSpace, LeafSpaceError, Point, Side
from germkit.plmap import PLMap, _frac, agree_on_ray, check
from germkit.rationals import format_rational
from germkit.suites import SuiteConfig, _action_law_samples


# -- the Fraction-era bodies --------------------------------------------------


@dataclass(frozen=True)
class OraclePoint:
    """``Point`` as it was before it stored ints: a frozen dataclass whose
    hash reads the coordinate's numerator and denominator."""

    branch: str
    coord: F

    def __hash__(self):
        coord = self.coord
        return hash((self.branch, coord.numerator, coord.denominator))

    def __repr__(self):
        return f"Point({self.branch!r}, {format_rational(self.coord)})"


@dataclass(frozen=True)
class OracleBlownPoint:
    """``BlownPoint`` as it was before it stored ints."""

    point: OraclePoint
    height: F | None = None


def oracle_canonical(space, p):
    """``LeafSpace.canonical`` as it cross-multiplied a ``Fraction``
    coordinate with each ``Fraction`` departure."""
    if p.branch not in space.branches:
        raise LeafSpaceError(f"unknown branch {p.branch!r}")
    coord = _frac(p.coord)
    n, d = coord.numerator, coord.denominator
    branch = p.branch
    br = space.branches[branch]
    while br.parent is not None:
        dep = br.departure
        if n * dep.denominator <= dep.numerator * d:
            break
        branch = br.parent
        br = space.branches[branch]
    if branch == p.branch and coord is p.coord:
        return p
    return OraclePoint(branch, coord)


def oracle_apply_homeo(space, h, p):
    """``apply_homeo`` as it evaluated the chart map to a ``Fraction`` and
    canonicalized the image point."""
    if p.branch not in h.branch_map or p.branch not in h.branch_pl:
        raise ActionError(f"homeomorphism undefined on branch {p.branch!r}")
    image = OraclePoint(h.branch_map[p.branch], h.branch_pl[p.branch](p.coord))
    return oracle_canonical(space, image)


def oracle_contains(space, line, p):
    """``Embedding(line).contains`` as it rebuilt the line's point at
    ``p.coord`` and compared."""
    if p.branch not in space.chain_to_root(line):
        return False
    return oracle_canonical(space, OraclePoint(line, _frac(p.coord))) == p


def oracle_alpha_apply(space, h, q):
    """One image of the twisted action with ``Fraction`` heights, as
    ``alpha_apply_all`` computed it before heights were ints."""
    image = oracle_apply_homeo(space.base, space.word_homeo(h), q.point)
    orbit = {as_oracle(p): w for p, w in space.orbit.items()}
    if q.height is None:
        if image in orbit:
            raise OrbitEscapeError(
                f"plain point {q.point!r} maps into a blown interval; expand the orbit depth"
            )
        return OracleBlownPoint(image)
    if q.point not in orbit:
        raise BlowupError(f"{q.point!r} is not a blown orbit point")
    if image not in orbit:
        raise OrbitEscapeError(
            f"image of orbit point {q.point!r} under {str(h)!r} needs depth beyond {space.depth}"
        )
    stab = space.stabilizer
    new_height = stab.phi_word(stab.twist(h, orbit[q.point]))(q.height)
    if not (0 <= new_height <= 1):
        raise BlowupError("twist map left the unit interval")
    return OracleBlownPoint(image, new_height)


# -- conversions and comparisons ----------------------------------------------


def as_oracle(p):
    return OraclePoint(p.branch, p.coord)


def new_point(p):
    return Point(p.branch, p.coord)


def assert_same(new, old):
    """A new point equals its oracle: branch, a ``Fraction`` coordinate,
    hash and ``repr``."""
    assert (new.branch, new.coord) == (old.branch, old.coord)
    assert type(new.coord) is F
    assert hash(new) == hash(old)
    assert repr(new) == repr(old)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def chart_points(space, gen):
    """Chart points on every branch: at each departure of its chain, just
    above and below it, at ints, and at random coordinates."""
    points = []
    for branch in sorted(space.branches):
        marks = [space.departure(b) for b in space.chain_to_root(branch)[:-1]] or [F(0)]
        for mark in marks:
            for nudge in (F(0), F(1, 997), F(-1, 997)):
                points.append(OraclePoint(branch, mark + nudge))
            points.append(OraclePoint(branch, int(mark) - 1))
        points.append(OraclePoint(branch, gen.fraction()))
    return points


def random_cases(seeds):
    """``(space, homeos, points)`` from ``CaseGen``: a random space of either
    side with two random homeos and their inverses, and a line swap."""
    for seed in seeds:
        gen = CaseGen(seed)
        space = gen.leafspace()
        homeos = [gen.homeo(space) for _ in range(2)]
        homeos += [invert_homeo(h) for h in homeos]
        yield space, homeos, chart_points(space, gen)
        swap_space, swap, _ = gen.swap_pair()
        yield swap_space, [swap], chart_points(swap_space, gen)


def bundle_cases():
    for name in ("e1", "e2", "e3"):
        b = bundle(name)
        gens = list(b.generators.values())
        homeos = gens + [invert_homeo(h) for h in gens]
        yield b.space, homeos, chart_points(b.space, CaseGen(0))


ALL_CASES = [*random_cases(range(40)), *bundle_cases()]


class TestAgainstTheFractionBodies:
    def test_cases_cover_both_sides(self):
        sides = {space.side for space, _, _ in ALL_CASES if len(space.branches) > 1}
        assert sides == {Side.NEGATIVE, Side.POSITIVE}

    @pytest.mark.parametrize("case", range(len(ALL_CASES)))
    def test_canonical_apply_and_contains(self, case):
        space, homeos, points = ALL_CASES[case]
        for old in points:
            p = new_point(old)
            canon, want = space.canonical(p), oracle_canonical(space, old)
            assert_same(canon, want)
            for h in homeos:
                image, want_image = apply_homeo(space, h, canon), oracle_apply_homeo(space, h, want)
                assert_same(image, want_image)
                for line in space.branches:
                    e = Embedding(line)
                    assert e.contains(space, image) == oracle_contains(space, line, want_image)
                    assert e.contains(space, p) == oracle_contains(space, line, old)

    def test_twisted_action_on_the_law_samples(self):
        for name in ("e1", "e3", "e3-coset-fault", "e3-phi-fault"):
            b = bundle(name)
            space = b.blowup
            samples = _action_law_samples(space, SuiteConfig(plain_samples=8, interval_samples=12))
            samples += [BlownPoint(space.marked, 0), BlownPoint(space.marked, 1)]  # fixed ends
            assert any(q.is_interval() for q in samples) and not all(q.is_interval() for q in samples)
            for w in reduced_words(sorted(space.generators), 3):
                for q in samples:
                    old = OracleBlownPoint(as_oracle(q.point), q.height)
                    want = outcome(oracle_alpha_apply, space, w, old)
                    got = outcome(lambda: next(alpha_apply_all(space, w, [q])))
                    if isinstance(want, tuple):
                        assert got == want
                    else:
                        assert_same(got.point, want.point)
                        assert got.height == want.height
                        assert got.height is None or type(got.height) is F


# -- the Point and BlownPoint contracts ----------------------------------------


def one_child(side=Side.NEGATIVE):
    return LeafSpace.build(side, {"r": (None, None), "b1": ("r", F(0))})


class TestPoint:
    def test_int_and_unreduced_fraction_are_one_point(self):
        assert Point("b", 1) == Point("b", F(2, 2))
        assert hash(Point("b", 1)) == hash(Point("b", F(2, 2))) == hash(("b", 1, 1))
        assert Point("b", 1) != Point("c", 1) and Point("b", 1) != Point("b", 2)

    @pytest.mark.parametrize("n, d", [(6, 4), (-6, 4), (0, 5), (7, 1), (2**80, 2**81)])
    def test_private_constructor_reduces(self, n, d):
        p = Point._of("b", n, d)
        assert p == Point("b", F(n, d)) and hash(p) == hash(Point("b", F(n, d)))
        assert p.coord == F(n, d) and type(p.coord) is F
        assert (p._n, p._d) == (F(n, d).numerator, F(n, d).denominator)

    @pytest.mark.parametrize("coord", [F(-3, 2), F(5), 2, -7, F(1, 2**70)])
    def test_repr_and_hash_unchanged(self, coord):
        assert repr(Point("b1", coord)) == repr(OraclePoint("b1", coord))
        assert hash(Point("b1", coord)) == hash(OraclePoint("b1", coord))
        assert repr(Point("b1", F(-3, 2))) == "Point('b1', -3/2)"

    def test_coord_is_a_fraction_kept_once_built(self):
        x = F(3, 7)
        assert Point("r", x).coord is x
        p = Point("r", 4)
        assert type(p.coord) is F and p.coord == 4 and p.coord is p.coord

    @pytest.mark.parametrize("field", ["branch", "coord"])
    def test_fields_are_read_only(self, field):
        p = Point("r", F(1, 2))
        with pytest.raises(AttributeError):
            setattr(p, field, "b1" if field == "branch" else F(1))
        with pytest.raises(AttributeError):
            delattr(p, field)
        assert p == Point("r", F(1, 2))

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            Point("r", 1).extra = 0

    def test_float_coordinate_raises(self):
        with pytest.raises(TypeError, match="got"):
            Point("r", 0.5)

    def test_not_equal_to_other_types(self):
        assert Point("r", 1) != ("r", 1, 1)
        assert Point("r", 1) != OraclePoint("r", F(1))


class TestIntegerRouteErrors:
    def test_apply_into_an_undeclared_branch_raises_leafspace_error(self):
        space = one_child()
        ident = PLMap.identity()
        h = Homeo({"r": "zz", "b1": "b1"}, {"r": ident, "b1": ident})
        with pytest.raises(LeafSpaceError, match="zz"):
            apply_homeo(space, h, Point("r", 1))
        with pytest.raises(LeafSpaceError, match="zz"):
            oracle_apply_homeo(space, h, OraclePoint("r", F(1)))

    def test_apply_off_the_homeo_raises_action_error(self):
        space = one_child()
        h = Homeo({"r": "r"}, {"r": PLMap.identity()})
        with pytest.raises(ActionError, match="b1"):
            apply_homeo(space, h, Point("b1", -1))

    def test_canonical_and_contains_on_an_unknown_branch(self):
        space = one_child("positive")
        with pytest.raises(LeafSpaceError):
            space.canonical(Point("zz", 0))
        with pytest.raises(LeafSpaceError):
            Embedding("zz").contains(space, Point("r", 0))
        assert not Embedding("r").contains(space, Point("zz", 0))

    def test_departure_is_not_glued(self):
        space = one_child()
        assert space.canonical(Point("b1", 0)) == Point("b1", 0)
        assert space.canonical(Point._of("b1", 1, 10**30)) == Point("r", F(1, 10**30))
        assert space.canonical(Point._of("b1", -2, 4)).branch == "b1"


class TestBlownPoint:
    def test_unreduced_height_is_one_point(self):
        p = Point("r", 0)
        q = BlownPoint(p, F(1, 2))
        assert q == BlownPoint._of(p, 2, 4) == BlownPoint(p, F(2, 4))
        assert hash(q) == hash(BlownPoint._of(p, 2, 4)) == hash((p, F(1, 2)))
        assert BlownPoint(p) != BlownPoint(p, 0) and BlownPoint(p, 0) == BlownPoint._of(p, 0, 3)
        assert BlownPoint(p, 1) == BlownPoint(p, F(1)) and BlownPoint(p, 1).height == 1

    def test_repr_unchanged(self):
        p = Point("b1", F(-1))
        assert repr(BlownPoint(p, F(1, 2))) == "BlownPoint(point=Point('b1', -1), height=Fraction(1, 2))"
        assert repr(BlownPoint._of(p, 3, 6)) == repr(BlownPoint(p, F(1, 2)))
        assert repr(BlownPoint(p)) == "BlownPoint(point=Point('b1', -1), height=None)"

    def test_fields_are_read_only(self):
        q = BlownPoint(Point("r", 0), F(1, 2))
        for field in ("point", "height"):
            with pytest.raises(AttributeError):
                setattr(q, field, None)
        assert q.is_interval() and not BlownPoint(Point("r", 0)).is_interval()


# -- counted Fraction construction (``fraction_count`` is in conftest.py) ---------


@pytest.fixture
def map_count(monkeypatch):
    """A counter on ``PLMap.__init__``: every map built, checked or not."""
    init = PLMap.__init__
    count = [0]

    def counted_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PLMap, "__init__", counted_init)
    return count


class TestNoFractionOnTheIntegerRoute:
    def test_apply_homeo_builds_no_fraction(self, fraction_count):
        b = bundle("e3")
        space, e = b.space, Embedding(b.space.root)
        homeos = list(b.generators.values())
        homeos += [invert_homeo(h) for h in homeos]
        for h in homeos:  # build the kernels first
            apply_homeo(space, h, Point("b1", -1))
        before = fraction_count[0]
        p = Point("b1", -1)
        for _ in range(3):
            for h in homeos:
                p = apply_homeo(space, h, p)
                assert space.canonical(p) is p
                assert e.contains(space, p) in (True, False)
                assert p == Point._of(p.branch, 2 * p._n, 2 * p._d)
                assert hash(p) == hash((p.branch, p._n, p._d))
        assert fraction_count[0] == before
        p.coord  # the first read builds one, which shows the counter counts
        assert fraction_count[0] == before + 1

    def test_alpha_apply_all_on_e3_law_samples_builds_no_fraction(self, fraction_count):
        b = bundle("e3")
        space = b.blowup
        config = SuiteConfig()
        samples = _action_law_samples(space, config)
        plain = [q for q in samples if not q.is_interval()]
        assert plain and len(plain) < len(samples)
        words = reduced_words(sorted(space.generators), config.word_ball)
        for w in words:  # fill the word and phi caches
            list(alpha_apply_all(space, w, samples))
        before = fraction_count[0]
        for w in words:
            images = list(alpha_apply_all(space, w, plain))
            assert len(images) == len(plain)
        assert fraction_count[0] == before
        for w in words:
            list(alpha_apply_all(space, w, samples))
        assert fraction_count[0] == before

    def test_alpha_apply_all_on_mids_builds_no_fraction(self, fraction_count):
        """The stepwise route of the law check acts on images the action
        built, whose heights hold no ``Fraction``; reading none of them, a
        warm law check builds none."""
        b = bundle("e3")
        space = b.blowup
        config = SuiteConfig()
        samples = _action_law_samples(space, config)
        words = reduced_words(sorted(space.generators), 2)
        mids = {w: list(alpha_apply_all(space, w, samples)) for w in words}
        for inner in words:  # fill the word and phi caches
            for outer in words:
                list(alpha_apply_all(space, outer, mids[inner]))
        assert any(q.is_interval() for q in mids[words[1]])
        assert validate_alpha_action(space, samples, 4) is None
        before = fraction_count[0]
        for inner in words:
            for outer in words:
                images = list(alpha_apply_all(space, outer, mids[inner]))
                assert len(images) == len(samples)
        assert validate_alpha_action(space, samples, 4) is None
        assert fraction_count[0] == before

    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_validate_homeo_builds_no_fraction_and_no_map(self, fraction_count, map_count, name):
        b = bundle(name)
        homeos = [
            word_homeo(b.space, b.generators, w)
            for w in reduced_words(sorted(b.generators), 3)
        ]
        before = fraction_count[0], map_count[0]
        for h in homeos:
            assert validate_homeo(b.space, h) is None
        assert (fraction_count[0], map_count[0]) == before

    def test_check_and_agree_on_ray_build_no_fraction_and_no_map(self, fraction_count, map_count):
        f = PLMap.make([(0, 0), (1, 2), (3, 3)], F(1, 2), 3)
        g = f * PLMap.make([(0, 0)], 2, 1)
        at, below = F(0), F(-1, 3)
        wrong = PLMap(f.breakpoints, f.values, f.left_slope, f.right_slope, F(1))
        before = fraction_count[0], map_count[0]
        assert check(f) is None and check(g) is None and check(wrong) is not None
        assert agree_on_ray(f, g, at) and not agree_on_ray(f, g, below)
        assert (fraction_count[0], map_count[0]) == before
