from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from germkit.examples import bundle
from germkit.fuzz import CaseGen
from germkit.germ import Germ
from germkit.plmap import (
    InvalidMapError, PLMap, _frac, agree_on_ray, check, reflect,
)
from germkit.rationals import format_rational
from reference import oracle_agree_on_ray, oracle_check, oracle_compose, oracle_eval, oracle_make
from support import (
    FIELDS, field_dict, large_fractions, large_slopes, loose_slopes, outcome, record_of,
    slopes, small_fractions,
)

# Identity left of 0, slope 2 right of 0.
STEP = PLMap.make([(0, 0)], 1, 2)
SHIFT = PLMap.affine(1, 1)
DOUBLE = PLMap.affine(2, 0)


# Values that fall at 1: no map.
GARBAGE = dict(breakpoints=(F(0), F(1)), values=(F(0), F(-1)),
               left_slope=F(1), right_slope=F(1), tail_offset=F(-2))


def grid(lo=-6, hi=6):
    return [F(n, 3) for n in range(3 * lo, 3 * hi + 1)]


class TestFrac:
    def test_fraction_is_returned_unchanged(self):
        q = F(2, 3)
        assert _frac(q) is q

    def test_int_and_string_convert(self):
        assert _frac(3) == F(3) and type(_frac(3)) is F
        assert _frac("-7/4") == F(-7, 4)

    @pytest.mark.parametrize("bad", [0.1, 1.0, None, [1]])
    def test_inexact_or_foreign_values_raise(self, bad):
        with pytest.raises(TypeError, match="got"):
            _frac(bad)

    def test_affine_rejects_a_float(self):
        with pytest.raises(TypeError, match="0.1"):
            PLMap.affine(0.1, 0)


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

    @pytest.mark.parametrize(
        "bps, vals",
        [((F(0), F(0)), (F(0), F(0))), ((F(0), F(0)), (F(0), F(1))), ((F(1), F(0)), (F(0), F(1)))],
    )
    def test_raw_map_with_unordered_breakpoints_raises_check_message(self, bps, vals):
        """A repeated or decreasing breakpoint leaves a piece of zero or
        negative width, which has no kernel triple: such data raise
        ``check``'s message at construction, so no map holds them."""
        message = check(record_of(bps, vals, F(1), F(1), F(0)))
        assert message.startswith("breakpoints not strictly increasing at")
        with pytest.raises(InvalidMapError, match=f"^{message}$"):
            PLMap(bps, vals, F(1), F(1), F(0))


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
        """``make`` drops it; the constructor, which canonicalizes nothing,
        rejects it."""
        assert PLMap.make([(1, 1)], 1, 1) == PLMap.identity()
        with pytest.raises(InvalidMapError, match="^map is not in canonical form$"):
            PLMap(breakpoints=(F(1),), values=(F(1),), left_slope=F(1),
                  right_slope=F(1), tail_offset=F(0))

    def test_canonical_unchanged(self):
        assert PLMap(**field_dict(STEP)) == STEP
        assert PLMap.make(zip(STEP.breakpoints, STEP.values), 1, 2) == STEP

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

    def test_inverse_of_a_raw_map_runs_the_rules(self):
        """``~`` canonicalizes an unchecked record, so an affine record with
        two tail slopes raises."""
        with pytest.raises(InvalidMapError, match="must have equal tail slopes"):
            ~record_of(**field_dict(PLMap.affine(2, 1), left_slope=F(1)))

    def test_check_flags_raw_garbage(self):
        message = "values not strictly increasing at 1"
        with pytest.raises(InvalidMapError, match=f"^{message}$"):
            PLMap(**GARBAGE)
        assert check(record_of(**GARBAGE)) == message
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

@st.composite
def plmaps(draw, coords=small_fractions, steps=slopes):
    xs = sorted(draw(st.sets(coords, min_size=0, max_size=5)))
    left = draw(steps)
    right = draw(steps)
    if not xs:
        return PLMap.make((), left, left, offset=draw(coords))
    y = draw(coords)
    ys = [y]
    for _ in xs[1:]:
        y = y + draw(steps)
        ys.append(y)
    return PLMap.make(zip(xs, ys), left, right)


large_plmaps = plmaps(large_fractions, large_slopes)


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


@given(plmaps(), small_fractions)
def test_reflect_pointwise(f, x):
    g = reflect(f)
    assert g(x) == -f(-x)
    assert check(g) is None
    assert reflect(g) == f


def test_reflect_swaps_the_tails():
    assert reflect(STEP) == PLMap.make([(0, 0)], 2, 1)
    assert reflect(SHIFT) == PLMap.affine(1, -1)


@given(plmaps(), st.integers(min_value=0, max_value=50))
def test_tail_sound(f, d):
    tail = Germ.of(f)
    x = tail_start(f) + d
    assert f(x) == tail.slope * x + tail.offset


# -- the integer kernel against the Fraction formulas ------------------------


def marks(f):
    """Breakpoints and values of ``f``: where pieces meet on either side."""
    return (*f.breakpoints, *f.values)


@given(plmaps(), small_fractions)
def test_eval_matches_fraction_oracle(f, x):
    for t in (x, *marks(f)):
        y = f(t)
        assert type(y) is F and y == oracle_eval(f, t)
    assert f.values == tuple(map(f, f.breakpoints))


@given(plmaps(), small_fractions)
def test_preimage_matches_inverse(f, y):
    inv = ~f
    for t in (y, *marks(f)):
        x = f.preimage(t)
        assert type(x) is F
        assert x == inv(t) == oracle_eval(inv, t)
        assert f(x) == t
    assert f.breakpoints == tuple(map(f.preimage, f.values))


def fields(f):
    return (*f.breakpoints, *f.values, f.left_slope, f.right_slope, f.tail_offset)


@given(plmaps(), plmaps())
def test_compose_matches_fraction_oracle(f, g):
    assert f * g == oracle_compose(f, g)


@given(large_plmaps, large_plmaps)
def test_compose_matches_fraction_oracle_large_denominators(f, g):
    h = f * g
    assert h == oracle_compose(f, g)
    assert all(type(v) is F for v in fields(h))


# -- composition by pieces against composition by points (oracle_compose) ----


def assert_composes_by_pieces(f, g):
    """``f * g`` keeps the record of :func:`oracle_compose` and holds the
    kernel that ``_build_kernel`` builds from it."""
    h, want = f * g, oracle_compose(f, g)
    assert h._record() == want._record()
    assert h._kernel is not None and h._kernel == want._build_kernel()
    assert h == want


KINK = PLMap.make([(F(-1), F(1, 2)), (F(2), F(3)), (F(7, 2), F(5))], F(1, 3), 2)


@given(plmaps(), plmaps())
@example(PLMap.affine(2, 1), PLMap.affine(F(1, 3), -2))  # affine after affine
@example(KINK, DOUBLE)  # PL after affine
@example(SHIFT, KINK)  # affine after PL
@example(KINK, ~KINK)  # collapses to the identity
@example(PLMap.make([(2, 5)], 2, 1), PLMap.make([(1, 2)], 1, 3))  # 1 -> 2, both break, kept
@example(PLMap.make([(2, 5)], 3, 1), PLMap.make([(1, 2)], 1, 3))  # slope 3 on both sides, dropped
def test_compose_by_pieces_matches_the_point_route(f, g):
    assert_composes_by_pieces(f, g)


@given(large_plmaps, large_plmaps)
def test_compose_by_pieces_with_large_denominators(f, g):
    assert_composes_by_pieces(f, g)


def test_compose_by_pieces_pinned_cases():
    assert KINK * ~KINK == PLMap.identity() == ~KINK * KINK
    kept = PLMap.make([(2, 5)], 2, 1) * PLMap.make([(1, 2)], 1, 3)
    assert kept._record() == (((1, 1, 5, 1),), 2, 1, 3, 1, 2, 1)
    dropped = PLMap.make([(2, 5)], 3, 1) * PLMap.make([(1, 2)], 1, 3)
    assert dropped == PLMap.affine(3, 2) and dropped._kernel == (3, 2, 1)


def test_compose_by_pieces_on_casegen_pairs():
    gen = CaseGen(3)
    maps = [gen.plmap() for _ in range(301)]
    for f, g in zip(maps, maps[1:]):
        assert_composes_by_pieces(f, g)


def test_a_composite_never_canonicalizes_nor_rebuilds_its_kernel(monkeypatch):
    f, g = KINK, PLMap.make([(F(-3), F(-1)), (F(1, 2), F(2))], 3, F(1, 5))
    inv = ~f
    for m in (f, g, inv):
        m(0)  # the operands' kernels, built before the patch

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr("germkit.plmap._canonical", forbidden)
    monkeypatch.setattr("germkit.plmap._scan", forbidden)
    monkeypatch.setattr(PLMap, "_build_kernel", forbidden)
    for h in (f * g, g * f, (f * g) * f, f * inv):
        for x in grid():
            assert h(x) == oracle_eval(h, x)
            assert h.preimage(h(x)) == x


def test_a_composite_piece_of_slope_at_most_zero_raises():
    """Only an operand that is no map could give one: its data raise at
    construction, as ``make`` rejects them."""
    f = PLMap.make([(0, 0), (1, 2)], 1, 1)
    falling = field_dict(f, values=(F(0), F(-1)), tail_offset=F(-2))
    flat_tail = field_dict(f, left_slope=F(0))
    for bad, message in [(falling, "values not strictly increasing at 1"),
                         (flat_tail, "tail slopes must be positive")]:
        with pytest.raises(InvalidMapError, match=f"^{message}$"):
            PLMap(**bad)


def test_a_raw_operand_that_breaks_continuity_raises():
    """Pieces multiply only on continuous operands: data whose stored tail
    offset does not meet the last point, or an affine map with two slopes,
    raise at construction with the message ``check`` gives on their record."""
    jumps = field_dict(STEP, tail_offset=F(5))
    bent = field_dict(PLMap.affine(2, 1), left_slope=F(1))
    for bad, message in [(jumps, "stored tail offset inconsistent with breakpoint data"),
                         (bent, "map without breakpoints must have equal tail slopes")]:
        assert check(record_of(**bad)) == message
        with pytest.raises(InvalidMapError, match=f"^{message}$"):
            PLMap(**bad)


# -- the integer canonicalizer against the Fraction one -----------------------


@st.composite
def point_data(draw, coords=small_fractions, steps=slopes):
    """Increasing points whose segment and tail slopes come from a palette of
    at most three, so that collinear runs (dropped points) are common."""
    palette = draw(st.lists(steps, min_size=1, max_size=3))
    pick = st.sampled_from(palette)
    x, y = draw(coords), draw(coords)
    pts = [(x, y)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        dx = draw(steps)
        x, y = x + dx, y + draw(pick) * dx
        pts.append((x, y))
    return pts, draw(pick), draw(pick)


@pytest.mark.parametrize("points", [point_data(), point_data(large_fractions, large_slopes)],
                         ids=["small", "large"])
@given(st.data())
def test_make_matches_fraction_oracle(points, data):
    pts, ls, rs = data.draw(points)
    f = PLMap.make(pts, ls, rs)
    assert f == oracle_make(pts, ls, rs)
    assert repr(f) == repr(oracle_make(pts, ls, rs))
    assert all(type(v) is F for v in fields(f))
    assert PLMap.make(pts, ls, rs, offset=f.tail_offset) == f


def test_make_drops_a_collinear_run():
    f = PLMap.make([(0, 0), (1, 2), (F(3, 2), 3), (2, 4), (3, 5)], 2, 1)
    assert f == oracle_make([(0, 0), (1, 2), (F(3, 2), 3), (2, 4), (3, 5)], 2, 1)
    assert f == PLMap.make([(2, 4)], 2, 1)


@given(
    st.lists(st.tuples(small_fractions, small_fractions), max_size=5),
    loose_slopes,
    loose_slopes,
    st.none() | small_fractions,
)
def test_make_rejects_like_fraction_oracle(pts, ls, rs, offset):
    """Unsorted, repeated or non-monotone points, non-positive slopes and
    inconsistent offsets: the same exception type and message, or the same
    map when the data happen to be valid."""
    assert outcome(PLMap.make, pts, ls, rs, offset) == outcome(oracle_make, pts, ls, rs, offset)


@given(point_data(), st.integers(min_value=1, max_value=6), st.booleans())
def test_make_rejects_a_broken_order_like_fraction_oracle(data, at, values_only):
    """One point moved back to its predecessor's breakpoint or value."""
    pts, ls, rs = data
    assume(len(pts) > 1)
    at = 1 + at % (len(pts) - 1)
    (x0, y0), (x1, y1) = pts[at - 1], pts[at]
    pts[at] = (x1, y0) if values_only else (x0, y1)
    expected = outcome(oracle_make, pts, ls, rs)
    assert outcome(PLMap.make, pts, ls, rs) == expected
    assert expected[0] is InvalidMapError


@given(plmaps(), small_fractions)
def test_evaluated_map_equals_fresh_copy(f, x):
    fresh = PLMap(f.breakpoints, f.values, f.left_slope, f.right_slope, f.tail_offset)
    f(x), f.preimage(x)
    assert f == fresh and fresh == f
    assert hash(f) == hash(fresh)
    assert repr(f) == repr(fresh)
    assert {f: 1}[fresh] == 1


def test_int_and_string_arguments():
    assert STEP(3) == STEP("3") == STEP(F(3)) == 6 and type(STEP(3)) is F
    assert STEP.preimage(6) == STEP.preimage("6") == 3 and type(STEP.preimage(6)) is F


def test_rejected_raw_instance_builds_no_kernel():
    """The constructor rejects the data; ``check`` rejects their unchecked
    record and leaves it without a kernel."""
    with pytest.raises(InvalidMapError):
        PLMap(**GARBAGE)
    bad = record_of(**GARBAGE)
    assert check(bad) is not None
    assert bad._kernel is None


# -- check and agree_on_ray on the integer kernel against the make route ------


def built(fields):
    """``None`` when ``PLMap(**fields)`` builds a map, else the message of
    the ``InvalidMapError`` it raises."""
    try:
        PLMap(**fields)
    except InvalidMapError as exc:
        return str(exc)
    return None


def ray_starts(f, g, cut):
    """The cut, every breakpoint of either map, and points just above and
    just below each of them."""
    for b in {cut, *f.breakpoints, *g.breakpoints}:
        yield from (b, b + F(1, 7), b - F(1, 7), b - 1)


@st.composite
def ray_pairs(draw):
    """A canonical map ``f``, a cut, and a canonical ``g`` equal to ``f``
    above the cut (changed below it before or after ``f``), or changed on
    both sides of it, or with one value of ``f`` moved, or drawn
    independently."""
    f = draw(plmaps())
    cut = draw(small_fractions)
    kind = draw(st.sampled_from(["before", "after", "both", "value", "other"]))
    if kind == "before":
        g = f * PLMap.make([(cut, cut)], draw(slopes), 1)
    elif kind == "after":
        g = PLMap.make([(f(cut), f(cut))], draw(slopes), 1) * f
    elif kind == "both":
        g = f * PLMap.make([(cut, cut)], 1, draw(slopes))
    elif kind == "value" and len(f.breakpoints) > 2:
        # Same breakpoints and tails; two pieces change.
        at = draw(st.integers(min_value=1, max_value=len(f.breakpoints) - 2))
        ys = list(f.values)
        ys[at] = ys[at - 1] + (ys[at + 1] - ys[at - 1]) * draw(st.sampled_from([F(1, 3), F(2, 3)]))
        g = PLMap.make(zip(f.breakpoints, ys), f.left_slope, f.right_slope)
    else:
        g = draw(plmaps())
    return f, g, cut, kind


@given(ray_pairs(), small_fractions)
def test_agree_on_ray_matches_fraction_oracle(pair, extra):
    f, g, cut, kind = pair
    if kind in ("before", "after"):
        assert agree_on_ray(f, g, cut) and agree_on_ray(g, f, cut)
    for start in (*ray_starts(f, g, cut), extra):
        expected = oracle_agree_on_ray(f, g, start)
        assert agree_on_ray(f, g, start) is expected
        assert agree_on_ray(g, f, start) is expected


def test_agree_on_ray_at_a_breakpoint_reads_the_piece_above_it():
    f = PLMap.make([(0, 0), (1, 2)], 1, 1)
    g = PLMap.make([(1, 2)], 2, 1)  # f's middle piece continued down
    assert agree_on_ray(f, g, 0) and not agree_on_ray(f, g, F(-1, 2))
    shift = PLMap.affine(1, 1)  # f's right tail continued down
    assert agree_on_ray(f, shift, 1) and not agree_on_ray(f, shift, F(1, 2))


def as_int(v):
    return int(v) if isinstance(v, F) and v.denominator == 1 else v


FLAWS = ("none", "order", "slope", "tail", "affine", "length", "list", "int", "float", "str")


@st.composite
def raw_plmaps(draw):
    """Constructor fields, most of them malformed: from point data with
    collinear runs (stored unmerged) or from a canonical map, with up to two
    flaws: non-increasing data, a loose tail slope, a wrong or missing tail
    offset, no breakpoints, a length mismatch, list containers, int fields,
    a float field or a string field."""
    pts, ls, rs = draw(point_data())
    if draw(st.booleans()):
        f = field_dict(PLMap.make(pts, ls, rs))
    else:
        xs, ys = (tuple(c) for c in zip(*pts))
        f = dict(breakpoints=xs, values=ys, left_slope=ls, right_slope=rs,
                 tail_offset=ys[-1] - rs * xs[-1])
    for flaw in draw(st.lists(st.sampled_from(FLAWS), max_size=2)):
        bps, vals = list(f["breakpoints"]), list(f["values"])
        if flaw == "order" and min(len(bps), len(vals)) > 1:
            # after a "length" flaw the two lists differ in length
            at = draw(st.integers(min_value=1, max_value=min(len(bps), len(vals)) - 1))
            if draw(st.booleans()):
                bps[at] = bps[at - 1]
            elif not isinstance(vals[at - 1], str):  # after a "str" flaw
                vals[at] = vals[at - 1] - draw(st.sampled_from([0, 1]))
            f = dict(f, breakpoints=tuple(bps), values=tuple(vals))
        elif flaw == "slope":
            side = draw(st.sampled_from(["left_slope", "right_slope"]))
            f = dict(f, **{side: draw(loose_slopes)})
        elif flaw == "tail":
            f = dict(f, tail_offset=draw(st.none() | small_fractions))
        elif flaw == "affine":
            f = dict(f, breakpoints=(), values=draw(st.sampled_from([(), tuple(vals)])))
        elif flaw == "length" and bps:
            if draw(st.booleans()):
                f = dict(f, values=tuple(vals[:-1]))
            elif not isinstance(bps[-1], str):  # after a "str" flaw
                f = dict(f, breakpoints=tuple(bps) + (bps[-1] + 1,))
        elif flaw == "list":
            f = dict(f, breakpoints=bps, values=vals)
        elif flaw == "int":
            f = dict(f, breakpoints=tuple(map(as_int, bps)), values=tuple(map(as_int, vals)),
                     **{k: as_int(f[k]) for k in FIELDS[2:]})
        elif flaw in ("float", "str"):
            # a value that an earlier flaw made a string stays one:
            # ``float("1/8")`` would fail in the strategy, not in the constructor
            convert = float if flaw == "float" else format_rational
            name = draw(st.sampled_from(FIELDS))
            value = f[name]
            if name in FIELDS[:2]:
                if not value:
                    continue
                at = draw(st.integers(min_value=0, max_value=len(value) - 1))
                if isinstance(value[at], str):
                    continue
                value = (*value[:at], convert(value[at]), *value[at + 1:])
            elif value is not None and not isinstance(value, str):
                value = convert(value)
            f = dict(f, **{name: value})
    return f


_KINKED = PLMap.make([(F(0), F(0)), (F(1), F(2)), (F(2), F(3))], 1, 2)


@given(raw_plmaps())
# a "length" flaw, then an "order" flaw on the shorter values or the longer breakpoints
@example(field_dict(_KINKED, values=(F(0), F(-1))))
@example(field_dict(_KINKED, breakpoints=(F(0), F(1), F(2), F(2))))
# a "str" flaw, then a "float" flaw that skips the string, on a scalar field
# and on a breakpoint
@example(field_dict(_KINKED, tail_offset="-1"))
@example(field_dict(_KINKED, breakpoints=(F(0), "1", F(2))))
def test_check_matches_fraction_oracle(f):
    """The constructor raises the oracle's message, builds a map where the
    oracle finds none, or raises the same exception type and message."""
    assert outcome(built, f) == outcome(oracle_check, **f)


# One row per outcome of the constructor: its fields and the message of the
# InvalidMapError it raises, or None when it builds a map.  String, list
# and int fields are read as make reads its arguments, so they build a map
# where the data are otherwise canonical.
_F = PLMap.make([(F(0), F(0)), (F(1), F(2))], 1, F(1, 2))  # tail offset 3/2
_LINE = PLMap.affine(2, 1)
_NO_OFFSET = "an affine map needs an explicit offset"
_UNEQUAL = "map without breakpoints must have equal tail slopes"
_STORED = "stored tail offset inconsistent with breakpoint data"
_NONCANONICAL = "map is not in canonical form"
OUTCOMES = [
    (field_dict(_F), None),
    (field_dict(_F, breakpoints=(F(0), F(0))), "breakpoints not strictly increasing at 0"),
    (field_dict(_F, breakpoints=(F(1), F(0))), "breakpoints not strictly increasing at 0"),
    (field_dict(_F, values=(F(0), F(0))), "values not strictly increasing at 1"),
    (field_dict(_F, left_slope=F(0)), "tail slopes must be positive"),
    (field_dict(_F, left_slope=F(-1)), "tail slopes must be positive"),
    (field_dict(_F, values=()), _NO_OFFSET),
    (field_dict(_F, breakpoints=(), values=(), tail_offset=None), _NO_OFFSET),
    (field_dict(_F, breakpoints=(), values=()), _UNEQUAL),
    (field_dict(_F, tail_offset=F(2)), _STORED),
    (field_dict(_F, tail_offset=None), _STORED),
    (field_dict(_F, values=(F(0),)), _STORED),
    (field_dict(_F, right_slope=F(2), tail_offset=F(0)), _NONCANONICAL),  # collinear
    (field_dict(KINK, breakpoints=(F(-2), *KINK.breakpoints),
                values=(F(1, 6), *KINK.values)), _NONCANONICAL),  # collinear
    (field_dict(_F, values=(F(0),), tail_offset=F(0)), _NONCANONICAL),
    (field_dict(_F, tail_offset="3/2"), None),
    (field_dict(_F, breakpoints=[F(0), F(1)]), None),
    (field_dict(_F, left_slope="1"), None),
    (field_dict(_F, breakpoints=(0, 1), values=(0, 2), left_slope=1), None),
    (field_dict(_LINE, left_slope=1), _UNEQUAL),
    (field_dict(_LINE, values=(F(0),)), _NONCANONICAL),
    (field_dict(_LINE, tail_offset=1), None),
]
# A float in any field raises TypeError, as in make.
FLOAT_FIELDS = [
    field_dict(_F, values=(F(0), 2.0)),
    field_dict(_F, right_slope=0.5),
    field_dict(_F, tail_offset=1.5),
    field_dict(_LINE, tail_offset=1.0),
]


def test_check_covers_every_outcome_of_the_oracle():
    """Each row of ``OUTCOMES``: the constructor raises its message or
    builds the map ``make`` builds from the same data, and the oracle
    agrees; each of ``FLOAT_FIELDS`` raises the oracle's ``TypeError``."""
    for row, expected in OUTCOMES:
        assert oracle_check(**row) == expected, row
        if expected is None:
            points = zip(row["breakpoints"], row["values"])
            made = PLMap.make(points, row["left_slope"], row["right_slope"], row["tail_offset"])
            assert PLMap(**row) == made, row
        else:
            with pytest.raises(InvalidMapError) as info:
                PLMap(**row)
            assert str(info.value) == expected, row
    for row in FLOAT_FIELDS:
        assert outcome(built, row) == outcome(oracle_check, **row)
        assert outcome(built, row)[0] is TypeError


# -- the integer record: every built map against its fields -------------------


def record_built(maps):
    """The maps that ``make``, ``*``, ``~``, :func:`reflect`, the
    constructor, ``affine`` and ``identity`` build from ``maps`` (each one
    freshly built, so no field of it has been read)."""
    built = [PLMap.identity(), PLMap.affine(F(3, 2), F(-1, 3))]
    for f, g in zip(maps, maps[1:] + maps[:1]):
        built += [f * g, ~f, reflect(f), PLMap(**field_dict(f))]
        built.append(PLMap.make(zip(f.breakpoints, f.values), f.left_slope, f.right_slope,
                                offset=f.tail_offset))
        built.append(PLMap.affine(f.right_slope, f.tail_offset))
    return built


def assert_reduced(f):
    pairs, lsn, lsd, rsn, rsd, ton, tod = f._record()
    for n, d in [(lsn, lsd), (rsn, rsd), (ton, tod), *((p[:2]) for p in pairs),
                 *((p[2:]) for p in pairs)]:
        assert d > 0 and gcd(n, d) == 1, f


def assert_record_contract(maps, fraction_count):
    """Each map built from ``maps`` is ``==`` to the map the constructor
    builds from its ``Fraction`` fields, with its hash and repr; passes
    :func:`check`; keeps a reduced record; composes as
    :func:`oracle_compose`; and ``*``, ``hash``, ``Germ.of``, ``check`` and
    :func:`agree_on_ray` build no ``Fraction`` for it.  Its first field read
    builds the fields, once."""
    built = record_built(list(maps))
    pairs = list(zip(built, built[1:] + built[:1]))
    start = F(-3, 2)
    for f, g in pairs:
        before = fraction_count[0]
        h = f * g
        assert hash(h) == hash(f * g) and hash(f) == hash(f._record())
        assert Germ.of(h) == Germ.of(f) * Germ.of(g)
        assert check(h) is None and check(f) is None
        assert agree_on_ray(h, f * g, start) and agree_on_ray(f, f, start)
        assert agree_on_ray(h, f, start) is agree_on_ray(f, h, start)
        assert fraction_count[0] == before, (f, g)
    for f in built:
        assert_reduced(f)
        before = fraction_count[0]
        values = fields(f)
        assert fraction_count[0] == before + len(values)
        assert all(a is b for a, b in zip(fields(f), values, strict=True))
        assert fraction_count[0] == before + len(values)
    for f, g in pairs:
        copy = PLMap(**field_dict(f))
        assert f == copy and copy == f and not f != copy
        assert hash(f) == hash(copy) and repr(f) == repr(copy)
        assert f * g == oracle_compose(f, g)


def e3_charts():
    return [pl for h in bundle("e3").generators.values() for pl in h.branch_pl.values()]


def casegen_draws():
    gen = CaseGen(0)
    return [gen.plmap() for _ in range(20)]


@pytest.mark.parametrize("source", [e3_charts, casegen_draws], ids=lambda s: s.__name__)
def test_built_maps_keep_the_record_contract(source, fraction_count):
    assert_record_contract(source(), fraction_count)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(f=plmaps(), g=plmaps())
def test_drawn_maps_keep_the_record_contract(f, g, fraction_count):
    assert_record_contract([f, g], fraction_count)


def has_record(row):
    """Whether a record can hold these fields: it has one offset, as many
    values as breakpoints, and no float."""
    scalars = (row["left_slope"], row["right_slope"], row["tail_offset"])
    return (row["tail_offset"] is not None
            and len(row["breakpoints"]) == len(row["values"])
            and not any(isinstance(v, float)
                        for v in (*row["breakpoints"], *row["values"], *scalars)))


def test_check_reads_every_rule_off_a_record():
    """``check`` on the unchecked record of each row of ``OUTCOMES`` that
    has one gives the row's message; a float in a record's fields raises
    ``TypeError`` as in the constructor."""
    rows = [(row, expected) for row, expected in OUTCOMES if has_record(row)]
    # a record always holds an offset
    messages = {expected for _, expected in OUTCOMES} - {_NO_OFFSET}
    assert {expected for _, expected in rows} == messages
    for row, expected in rows:
        assert check(record_of(**row)) == expected, row
    for row in FLOAT_FIELDS:
        with pytest.raises(TypeError):
            record_of(**row)


@given(raw_plmaps())
@example(field_dict(_KINKED, tail_offset=F(-2)))
def test_check_on_a_record_matches_the_raw_instance(f):
    """``check`` on the unchecked record of ``f``'s fields reports what the
    constructor raises on them, for every ``f`` a record can hold."""
    assume(has_record(f))
    assert check(record_of(**f)) == built(f)
