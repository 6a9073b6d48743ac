from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from germkit.germ import Germ
from germkit.plmap import InvalidMapError, PLMap, agree_on_ray, check, normalize

# Identity left of 0, slope 2 right of 0.
STEP = PLMap.make([(0, 0)], 1, 2)
SHIFT = PLMap.affine(1, 1)
DOUBLE = PLMap.affine(2, 0)


def grid(lo=-6, hi=6):
    return [F(n, 3) for n in range(3 * lo, 3 * hi + 1)]


class TestEval:
    def test_translation(self):
        assert SHIFT(5) == 6

    def test_identity_piece(self):
        assert STEP(-3) == -3

    def test_doubling_piece(self):
        assert STEP(3) == 6

    def test_interpolation_between_breakpoints(self):
        f = PLMap.make([(0, 0), (2, 1)], 1, 1)
        assert f(1) == F(1, 2)


class TestCompose:
    def test_translations(self):
        assert SHIFT * SHIFT == PLMap.affine(1, 2)

    def test_double_after_shift(self):
        composed = DOUBLE * SHIFT
        # pointwise oracle: evaluate the two factors in sequence
        for x in (-1, 0, 1, 2):
            assert composed(x) == DOUBLE(SHIFT(x))
        assert composed == PLMap.affine(2, 2)

    def test_step_after_shift(self):
        composed = STEP * SHIFT
        for x in grid():
            assert composed(x) == STEP(SHIFT(x))
        assert composed.breakpoints == (F(-1),)
        assert composed.values == (F(0),)
        assert composed.left_slope == 1
        assert composed.right_slope == 2
        assert composed.tail_offset == 2

    def test_associative_pointwise(self):
        a, b, c = STEP, SHIFT, PLMap.make([(1, 2)], F(1, 2), 3)
        lhs, rhs = (a * b) * c, a * (b * c)
        assert lhs == rhs


class TestInvert:
    def test_translation(self):
        assert ~SHIFT == PLMap.affine(1, -1)

    def test_dilation(self):
        assert ~DOUBLE == PLMap.affine(F(1, 2), 0)

    def test_step_roundtrip(self):
        inv = ~STEP
        for x in grid():
            assert inv(STEP(x)) == x
            assert STEP(inv(x)) == x
        assert inv.left_slope == 1
        assert inv.right_slope == F(1, 2)


class TestNormalize:
    def test_spurious_breakpoint_removed(self):
        raw = PLMap(breakpoints=(F(1),), values=(F(1),), left_slope=F(1),
                    right_slope=F(1), tail_offset=F(0))
        assert normalize(raw) == PLMap.identity()

    def test_canonical_unchanged(self):
        assert normalize(STEP) == STEP
        assert normalize(normalize(STEP)) == STEP

    def test_collinear_pieces_merged(self):
        f = PLMap.make([(0, 0), (1, 2), (2, 4)], 1, 3)
        assert f.breakpoints == (F(0), F(2))
        g = PLMap.make([(0, 0), (2, 4)], 1, 3)
        for x in grid():
            assert f(x) == g(x)

    def test_rejects_nonmonotone_values(self):
        with pytest.raises(InvalidMapError):
            PLMap.make([(0, 0), (1, -1)], 1, 1)

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(InvalidMapError):
            PLMap.make([(0, 0)], -1, 2)
        with pytest.raises(InvalidMapError):
            PLMap.affine(0, 3)

    def test_check_flags_raw_garbage(self):
        bad = PLMap(breakpoints=(F(0), F(1)), values=(F(0), F(-1)),
                    left_slope=F(1), right_slope=F(1), tail_offset=F(-2))
        assert check(bad) is not None
        assert check(STEP) is None


def tail_start(f):
    """Where the affine tail ``Germ.of(f)`` starts to hold."""
    return f.breakpoints[-1] if f.breakpoints else F(0)


class TestAffineTail:
    def test_step(self):
        assert Germ.of(STEP) == Germ(2, 0) and tail_start(STEP) == 0

    def test_translation(self):
        assert Germ.of(SHIFT) == Germ(1, 1)

    def test_composition(self):
        f = STEP * SHIFT
        assert Germ.of(f) == Germ(2, 2) and tail_start(f) == -1

    def test_tail_matches_evaluation(self):
        f = STEP * SHIFT
        tail = Germ.of(f)
        for d in (0, 1, F(7, 2), 100):
            x = tail_start(f) + d
            assert f(x) == tail.slope * x + tail.offset


class TestAgreeOnRay:
    def test_equal_maps(self):
        assert agree_on_ray(STEP, STEP, F(-5))

    def test_tail_agreement_only(self):
        f = PLMap.make([(0, 0)], F(1, 2), 1)
        assert agree_on_ray(f, PLMap.identity(), F(0))
        assert not agree_on_ray(f, PLMap.identity(), F(-1))

    def test_different_tails(self):
        assert not agree_on_ray(SHIFT, PLMap.identity(), F(1000))


# -- randomized properties ---------------------------------------------------

small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
slopes = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)


@st.composite
def plmaps(draw):
    xs = sorted(draw(st.sets(small_fractions, min_size=0, max_size=5)))
    left = draw(slopes)
    right = draw(slopes)
    if not xs:
        return PLMap.make((), left, left, offset=draw(small_fractions))
    y = draw(small_fractions)
    ys = [y]
    for _ in xs[1:]:
        y = y + draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
        ys.append(y)
    return PLMap.make(zip(xs, ys), left, right)


@given(plmaps(), small_fractions, small_fractions)
def test_monotone(f, x, y):
    if x < y:
        assert f(x) < f(y)


@given(plmaps(), plmaps(), small_fractions)
def test_compose_pointwise(f, g, x):
    assert (f * g)(x) == f(g(x))


@given(plmaps(), small_fractions)
def test_inverse_roundtrip(f, x):
    assert (~f)(f(x)) == x


@given(plmaps())
def test_normalize_idempotent(f):
    assert normalize(f) == f
    assert check(f) is None


@given(plmaps(), st.integers(min_value=0, max_value=50))
def test_tail_sound(f, d):
    tail = Germ.of(f)
    x = tail_start(f) + d
    assert f(x) == tail.slope * x + tail.offset
