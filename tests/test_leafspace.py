from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from germkit.fuzz import CaseGen
from germkit.leafspace import (
    Classification,
    LeafSpace,
    LeafSpaceError,
    Point,
    Side,
    root_embedding,
)
from reference import as_oracle, oracle_canonical, oracle_share_threshold
from support import rationals


def one_child():
    return LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "b1": ("r", F(0))})


def two_children():
    return LeafSpace.build(
        Side.NEGATIVE,
        {"r": (None, None), "b1": ("r", F(0)), "b2": ("r", F(0))},
    )


def grandchild_chain():
    # b2 departs b1 at 0, b1 departs the root at -1
    return LeafSpace.build(
        Side.NEGATIVE,
        {"r": (None, None), "b1": ("r", F(-1)), "b2": ("b1", F(0))},
    )


class TestCanonical:
    def test_glued_above_departure(self):
        L = one_child()
        assert L.canonical(Point("b1", F(5))) == Point("r", F(5))

    def test_departure_point_not_identified(self):
        L = one_child()
        assert L.canonical(Point("b1", F(0))) == Point("b1", F(0))

    def test_ascends_through_chain(self):
        L = grandchild_chain()
        assert L.canonical(Point("b2", F(7))) == Point("r", F(7))

    def test_idempotent(self):
        L = grandchild_chain()
        for p in (Point("b2", F(-3)), Point("b1", F(-1)), Point("r", F(2))):
            q = L.canonical(p)
            assert L.canonical(q) == q
            assert q.coord == p.coord

    def test_unknown_branch(self):
        with pytest.raises(LeafSpaceError):
            one_child().canonical(Point("zz", F(0)))


class TestNonSeparated:
    def test_departure_pair(self):
        L = one_child()
        assert L.non_separated(Point("r", F(0))) == frozenset({Point("b1", F(0))})

    def test_interior_point_is_separated(self):
        assert one_child().non_separated(Point("r", F(3))) == frozenset()

    def test_two_children_same_departure(self):
        L = two_children()
        partners = L.non_separated(Point("b1", F(0)))
        assert partners == frozenset({Point("r", F(0)), Point("b2", F(0))})

    def test_symmetric_and_coordinate_preserving(self):
        L = grandchild_chain()
        points = [
            Point("r", F(0)),
            Point("r", F(-1)),
            Point("b1", F(-1)),
            Point("b2", F(0)),
            Point("b2", F(-5)),
        ]
        for p in points:
            p = L.canonical(p)
            for q in L.non_separated(p):
                assert q.coord == p.coord
                assert p in L.non_separated(q)

    def test_skipped_parent_chart(self):
        # b2's gluing region lies inside the part of b1 already glued to the
        # root, so b2's partner at 0 is the root, not b1
        L = grandchild_chain()
        assert L.non_separated(Point("r", F(0))) == frozenset({Point("b2", F(0))})


class TestClassify:
    def test_line(self):
        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
        assert L.classify() is Classification.LINE

    def test_one_sided_negative(self):
        assert one_child().classify() is Classification.ONE_SIDED_NEGATIVE

    def test_one_sided_positive(self):
        L = LeafSpace.build(Side.POSITIVE, {"r": (None, None), "b1": ("r", F(0))})
        assert L.classify() is Classification.ONE_SIDED_POSITIVE


class TestNegativeEnds:
    def test_single_branch(self):
        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
        assert L.negative_ends() == ("r",)

    def test_three_branches(self):
        assert len(two_children().negative_ends()) == 3

    def test_four_branch_chain(self):
        L = LeafSpace.build(
            Side.NEGATIVE,
            {
                "r": (None, None),
                "a": ("r", F(0)),
                "b": ("a", F(-1)),
                "c": ("b", F(-2)),
            },
        )
        assert len(L.negative_ends()) == 4

    def test_side_mismatch(self):
        L = LeafSpace.build(Side.POSITIVE, {"r": (None, None), "b1": ("r", F(0))})
        with pytest.raises(LeafSpaceError):
            L.negative_ends()


class TestBuildErrors:
    def test_two_roots(self):
        with pytest.raises(LeafSpaceError, match="root"):
            LeafSpace.build(Side.NEGATIVE, {"a": (None, None), "b": (None, None)})

    def test_undefined_parent_names_branch(self):
        with pytest.raises(LeafSpaceError, match="b1"):
            LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "b1": ("zz", F(0))})

    def test_cycle(self):
        with pytest.raises(LeafSpaceError, match="cycle"):
            LeafSpace.build(
                Side.NEGATIVE,
                {"r": (None, None), "a": ("b", F(0)), "b": ("a", F(0))},
            )

    def test_missing_departure(self):
        with pytest.raises(LeafSpaceError, match="departure"):
            LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "a": ("r", None)})

    @pytest.mark.parametrize(
        "side, branches, message",
        [
            ("sideways", {"r": (None, None)}, "unknown side 'sideways'"),
            (Side.NEGATIVE, {}, "a leaf space needs at least one branch"),
            ("negative", {"": (None, None)}, "branch id must be a nonempty string, got ''"),
            (Side.POSITIVE, {"r": (None, F(0))}, "branch 'r': root cannot have a departure"),
        ],
        ids=["unknown-side", "no-branches", "empty-id", "root-departure"],
    )
    def test_input_errors(self, side, branches, message):
        with pytest.raises(LeafSpaceError) as raised:
            LeafSpace.build(side, branches)
        assert type(raised.value) is LeafSpaceError and str(raised.value) == message


class TestEmbedding:
    def test_root_chart(self):
        L = one_child()
        e = root_embedding(L)
        assert e.point_at(L, F(5)) == Point("r", F(5))
        assert e.contains(L, Point("r", F(-10)))
        assert not e.contains(L, Point("b1", F(-1)))

    def test_branch_chart_follows_gluing(self):
        from germkit.leafspace import Embedding

        L = one_child()
        e = Embedding("b1")
        assert e.point_at(L, F(-2)) == Point("b1", F(-2))
        assert e.point_at(L, F(2)) == Point("r", F(2))
        assert e.contains(L, Point("r", F(2)))
        assert not e.contains(L, Point("r", F(-2)))

    def test_share_threshold(self):
        L = grandchild_chain()
        assert L.share_threshold("b2", "r") == F(0)
        assert L.share_threshold("b1", "r") == F(-1)
        assert L.share_threshold("b2", "b1") == F(0)
        assert L.share_threshold("r", "r") is None

    def test_kept_share_thresholds_match_the_chains(self):
        gen = CaseGen(5)
        for _ in range(8):
            space = gen.leafspace(max_branches=5)
            for a in sorted(space.branches):
                for b in sorted(space.branches):
                    expected = oracle_share_threshold(space, a, b)
                    assert space.share_threshold(a, b) == expected  # computed
                    assert space.share_threshold(a, b) == expected  # kept


# -- integer canonicalization against the Fraction body -------------------------


def wide_chain(side):
    # departures with large, unequal denominators, including a shared one
    return LeafSpace.build(
        side,
        {
            "r": (None, None),
            "a": ("r", F(2**70 + 1, 3**40)),
            "b": ("a", F(-7, 2**65)),
            "c": ("a", F(-7, 2**65)),
            "d": ("b", F(-5, 3)),
        },
    )


SPACES = [wide_chain(Side.NEGATIVE), wide_chain("positive"), grandchild_chain()]
nudges = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(1, 3), st.integers(1, 2**80)),  # just above
    st.builds(F, st.integers(-3, -1), st.integers(1, 2**80)),  # just below
)
anywhere = rationals(-50, 50, 2**70)


@st.composite
def chart_points(draw):
    """A space and a chart point on it: at a departure on the branch's way to
    the root (exactly, just above or just below), or anywhere."""
    space = draw(st.sampled_from(SPACES))
    branch = draw(st.sampled_from(sorted(space.branches)))
    marks = [space.departure(b) for b in space.chain_to_root(branch)[:-1]]
    if marks:
        base = draw(st.one_of(st.sampled_from(marks), anywhere))
    else:
        base = draw(anywhere)
    coord = base + draw(nudges)
    if coord.denominator == 1 and draw(st.booleans()):
        coord = int(coord)
    return space, Point(branch, coord)


class TestIntegerCanonical:
    def test_int_and_fraction_points_hash_alike(self):
        for b in ("r", "b1"):
            assert Point(b, 1) == Point(b, F(1))
            assert hash(Point(b, 1)) == hash(Point(b, F(1)))
        assert {Point("r", -3): 0}[Point("r", F(-6, 2))] == 0

    @given(chart_points())
    def test_matches_the_fraction_body(self, case):
        space, p = case
        got = space.canonical(p)
        oracle = oracle_canonical(space, as_oracle(p))
        want = Point(oracle.branch, oracle.coord)
        assert got == want and type(got.coord) is F
        assert hash(got) == hash(want)

    @given(chart_points())
    def test_canonical_fraction_point_is_returned_as_is(self, case):
        space, p = case
        q = space.canonical(p)
        assert space.canonical(q) is q

    def test_exactly_at_and_just_above_a_departure(self):
        L = wide_chain("positive")
        dep = L.departure("d")
        assert L.canonical(Point("d", dep)) == Point("d", dep)
        above = dep + F(1, 2**90)
        assert L.canonical(Point("d", above)) == Point("b", above)

    @pytest.mark.parametrize("coord", [0.5, -2.0])
    def test_float_coordinate_raises(self, coord):
        with pytest.raises(TypeError, match="got"):
            grandchild_chain().canonical(Point("b2", coord))
