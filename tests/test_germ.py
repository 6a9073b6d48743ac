from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from germkit.action import Word, _ray_events, induced_germ, invert_homeo, word_homeo
from germkit.examples import bundle
from germkit.germ import Germ, OrderSign, compare, eventual_comparison_bound
from germkit.leafspace import root_embedding
from germkit.plmap import InvalidMapError, PLMap
from reference import (
    OracleGerm, lift, oracle_compare, oracle_invert, oracle_is_positive, oracle_mul, oracle_order,
)
from support import rationals

STEP = PLMap.make([(0, 0)], 1, 2)
SHIFT = PLMap.affine(1, 1)


def bump_below(cutoff):
    """An increasing map equal to the identity on [cutoff, +oo)."""
    c = F(cutoff)
    return PLMap.make([(c - 4, c - 4), (c - 2, c - 1), (c, c)], 1, 1)


class TestGermOf:
    def test_tail_equality(self):
        assert Germ.of(STEP) == Germ.of(PLMap.affine(2, 0))

    def test_distinct(self):
        assert Germ.of(SHIFT) != Germ.of(PLMap.identity())

    def test_modification_below_is_invisible(self):
        f = STEP * bump_below(-10)
        assert f != STEP
        assert Germ.of(f) == Germ.of(STEP)


class TestDirectConstruction:
    @pytest.mark.parametrize("f", [STEP, SHIFT, STEP * bump_below(-10), PLMap.identity()], ids=repr)
    def test_of_keeps_the_tail_fields(self, f, fraction_count):
        """The germ of ``f`` holds the values of ``f``'s tail fields: it
        equals ``Germ(f.right_slope, f.tail_offset)`` with the same hash and
        repr, and reading the tail off the record builds no ``Fraction``."""
        before = fraction_count[0]
        u = Germ.of(f)
        assert fraction_count[0] == before
        v = Germ(f.right_slope, f.tail_offset)
        assert u == v and hash(u) == hash(v) and repr(u) == repr(v)
        assert u.slope == f.right_slope and u.offset == f.tail_offset

    @pytest.mark.parametrize("slope", [F(0), F(-2, 3)])
    def test_of_rejects_a_raw_map_with_nonpositive_slope(self, slope):
        """The map is refused at construction, so ``Germ.of`` never meets a
        nonpositive slope."""
        with pytest.raises(InvalidMapError, match="^tail slopes must be positive$"):
            Germ.of(PLMap((), (), slope, slope, 1))

    def test_identity(self):
        u = Germ.identity()
        assert u == Germ(1, 0) and hash(u) == hash(Germ(1, 0))
        assert type(u.slope) is type(u.offset) is F
        assert repr(u) == "Germ(1, 0)" and u.is_identity()


class TestProduct:
    def test_from_representatives(self):
        # compose representatives of (2,0) and (1,1), read off the tail
        composed = STEP * SHIFT
        assert Germ.of(STEP) * Germ.of(SHIFT) == Germ.of(composed)
        assert Germ.of(composed) == Germ(2, 2)

    def test_identity(self):
        u = Germ(F(3, 2), F(-7, 5))
        assert Germ.identity() * u == u
        assert u * Germ.identity() == u

    def test_well_defined_on_mutated_representatives(self):
        f = STEP * bump_below(-3)
        g = SHIFT * bump_below(5)
        assert Germ.of(f) * Germ.of(g) == Germ.of(STEP * SHIFT)


class TestInverse:
    def test_dilation(self):
        assert ~Germ(2, 0) == Germ(F(1, 2), 0)

    def test_translation(self):
        assert ~Germ(1, F(5, 3)) == Germ(1, F(-5, 3))

    def test_general(self):
        u = Germ(2, 2)
        assert ~u == Germ(F(1, 2), -1)
        assert u * ~u == Germ.identity()
        assert ~u * u == Germ.identity()


class TestCompare:
    def test_translation_above_identity(self):
        assert compare(Germ(1, 1), Germ.identity()) is OrderSign.GT

    def test_equal(self):
        assert compare(Germ(1, 0), Germ(1, 0)) is OrderSign.EQ

    def test_eventual_domination_wins(self):
        # 2x - 5 dips below the diagonal early but dominates eventually
        u = Germ(2, -5)
        assert compare(u, Germ.identity()) is OrderSign.GT
        f = u.representative()
        assert f(6) > 6 and f(1000) > 1000

    def test_cone_characterization(self):
        assert Germ(2, -100).is_positive()
        assert Germ(1, F(1, 7)).is_positive()
        assert not Germ(1, 0).is_positive()
        assert not Germ(F(1, 2), 50).is_positive()


# -- randomized properties ----------------------------------------------------

germs = st.builds(Germ, rationals(F(1, 9), 9, 9), rationals(-9, 9, 9))


@given(germs, germs, germs)
def test_group_axioms(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * Germ.identity() == u
    assert u * ~u == Germ.identity()


@given(germs, germs)
def test_trichotomy(u, v):
    forward, backward = compare(u, v), compare(v, u)
    if u == v:
        assert forward is OrderSign.EQ and backward is OrderSign.EQ
    else:
        assert {forward, backward} == {OrderSign.LT, OrderSign.GT}


@given(germs, germs, germs)
def test_transitivity(u, v, w):
    a, b, c = sorted((u, v, w), key=lambda g: (g.slope, g.offset))
    le = lambda x, y: compare(x, y) in (OrderSign.LT, OrderSign.EQ)
    if le(a, b) and le(b, c):
        assert le(a, c)


@given(germs, germs, germs)
def test_left_invariance(u, v, w):
    assert compare(u, v) == compare(w * u, w * v)


@given(germs)
def test_positive_cone_matches_eventual_comparison(u):
    f = u.representative()
    bound = eventual_comparison_bound(u)
    eventually_above = f(bound + 1) > bound + 1 and f(bound + 1000) > bound + 1000
    assert (compare(u, Germ.identity()) is OrderSign.GT) == eventually_above


def test_slope_must_be_positive():
    with pytest.raises(ValueError):
        Germ(0, 1)


class TestFields:
    def test_fractions_are_kept(self):
        slope, offset = F(3, 2), F(-7, 5)
        u = Germ(slope, offset)
        assert u.slope is slope and u.offset is offset

    def test_ints_convert(self):
        u = Germ(1, 3)
        assert type(u.slope) is F and type(u.offset) is F
        assert u == Germ(F(1), F(3))

    @pytest.mark.parametrize("slope, offset", [(0.5, 0), (1, 0.25)])
    def test_floats_are_rejected(self, slope, offset):
        with pytest.raises(TypeError, match="got"):
            Germ(slope, offset)


# -- integer arithmetic against the Fraction formulas ---------------------------


BIG = 2**64
big_offsets = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
)
wide_germs = st.one_of(
    germs,
    st.builds(Germ, st.builds(F, st.integers(1, BIG), st.integers(1, BIG)), big_offsets),
    st.builds(Germ, st.just(F(1)), big_offsets),  # translations: the order reads the offset
)
# slope above, at and below 1, each with a negative, zero and positive offset
EDGES = [Germ(a, b) for a in (2, 1, F(1, 2)) for b in (-5, 0, F(1, 3))]


def same_germ(got, want):
    """Equal values, ``Fraction`` fields and the same text."""
    return got == want and type(got.slope) is type(got.offset) is F and repr(got) == repr(want)


@given(wide_germs, wide_germs)
def test_int_product_matches_fractions(u, v):
    assert same_germ(u * v, oracle_mul(u, v))


@given(wide_germs)
def test_int_inverse_matches_fractions(u):
    assert same_germ(~u, oracle_invert(u))


@pytest.mark.parametrize("u", EDGES, ids=repr)
def test_is_positive_matches_fractions_at_edges(u):
    assert u.is_positive() == oracle_is_positive(u)


@given(wide_germs)
def test_is_positive_matches_fractions(u):
    assert u.is_positive() == oracle_is_positive(u)


@given(wide_germs, wide_germs)
def test_compare_matches_fractions(u, v):
    assert compare(u, v) is oracle_compare(u, v)


@given(wide_germs, big_offsets)
def test_compare_matches_fractions_at_equal_slopes(u, offset):
    # ~u * v has slope 1 here, so the order is decided by the offset
    v = Germ(u.slope, offset)
    assert compare(u, v) is oracle_compare(u, v)


def routes(u, v):
    """Germs built by each route (constructor, product, inverse and their
    mixes) beside their oracle values."""
    ou, ov = lift(u), lift(v)
    return [
        (u, ou), (v, ov), (u * v, ou * ov), (~u, ~ou), (~u * v, ~ou * ov),
        (u * ~u, ou * ~ou), (u * v * ~v, ou * ov * ~ov), (Germ.identity(), OracleGerm(F(1), F(0))),
    ]


@given(st.one_of(germs, wide_germs), st.one_of(germs, wide_germs))
def test_agrees_with_the_dataclass_germ(u, v):
    pairs = routes(u, v)
    for got, want in pairs:
        assert repr(got) == repr(want)
        assert (got.slope, got.offset) == (want.slope, want.offset)
        assert got.is_identity() == want.is_identity()
        assert got.is_positive() == want.is_positive()
        bound = F(0) if want.slope == 1 else abs(want.offset / (1 - want.slope))
        assert eventual_comparison_bound(got) == bound
    for got1, want1 in pairs:
        for got2, want2 in pairs:
            assert (got1 == got2) == (want1 == want2)
            if got1 == got2:
                assert hash(got1) == hash(got2)
            assert compare(got1, got2) is oracle_order(want1, want2)


def test_equal_germs_from_every_route_hash_alike():
    u = Germ(F(3, 2), F(-7, 5))
    same = [u, u * Germ.identity(), ~~u, u * Germ(2, 1) * ~Germ(2, 1), Germ("6/4", "-14/10")]
    assert len({hash(x) for x in same}) == 1 and len(set(same)) == 1
    assert Germ(1, 0) == Germ.identity() and hash(Germ(1, 0)) == hash(Germ.identity())
    assert (Germ(1, 0) == (1, 0)) is False


@pytest.mark.parametrize("field", ["slope", "offset"])
def test_fields_are_read_only(field):
    for u in (Germ(2, 1), Germ(2, 1) * Germ(3, 0)):
        with pytest.raises(AttributeError):
            setattr(u, field, F(5))
    with pytest.raises(AttributeError):
        Germ(2, 1).extra = 0


# -- counted Fraction construction (``fraction_count`` is in conftest.py) ---------


class TestNoFraction:
    def test_products_inverses_equality_and_compare_build_none(self, fraction_count):
        u, v, w = Germ(F(3, 2), F(-7, 5)), Germ(1, F(1, 3)), Germ(F(2, 9), 4)
        before = fraction_count[0]
        x = u * ~v * w
        for _ in range(3):
            x = ~x * u * w
            assert x == x * Germ.identity() and hash(x) == hash(~~x)
            assert not x.is_identity() and (x * ~x).is_identity()
            signs = {compare(x, u), compare(u, x), compare(x, v), compare(x, x)}
            assert OrderSign.EQ in signs and len(signs) > 1
            assert x.is_positive() != (~x).is_positive()
        assert fraction_count[0] == before
        assert type(x.slope) is F  # the first read builds the slope
        assert fraction_count[0] == before + 1
        assert x.slope is x.slope  # and later reads keep it
        assert fraction_count[0] == before + 1
        assert x == Germ(x.slope, x.offset)

    def test_of_and_the_constructor_keep_their_fractions(self, fraction_count):
        """``Germ(...)`` keeps the ``Fraction``s it is given; ``Germ.of``
        builds none and equals the germ of the map's tail fields."""
        f = PLMap.make([(0, 0)], 1, F(5, 3))
        slope, offset = F(3, 2), F(-7, 5)
        before = fraction_count[0]
        u, v = Germ.of(f), Germ(slope, offset)
        assert v.slope is slope and v.offset is offset
        assert fraction_count[0] == before
        w = Germ(f.right_slope, f.tail_offset)
        assert u == w and hash(u) == hash(w) and repr(u) == repr(w)

    def test_default_e3_induced_germ_builds_its_germ_from_ints(self, fraction_count):
        b = bundle("e3")
        space, e = b.space, root_embedding(b.space)
        homeos = [word_homeo(space, b.generators, Word.parse("f k f^-1 k"))]
        for h in b.generators.values():
            homeos += [h, invert_homeo(h)]
        for h in homeos:
            # no call builds a Fraction: the germ is the root chart's tail,
            # read off its integer record
            before = fraction_count[0]
            u = induced_germ(space, h, e)
            assert fraction_count[0] == before
            assert induced_germ(space, h, e) == u
            assert fraction_count[0] == before
            assert u == induced_germ(space, h, e, threshold=F(*_ray_events(space, h, e)[-1]) + 5)
