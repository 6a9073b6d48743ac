"""Points on reduced ints through the action layer.

``Point`` and ``BlownPoint`` store their coordinate and height as a reduced
numerator and denominator, and ``apply_homeo``, ``LeafSpace.canonical``,
``Embedding.contains`` and the twisted action's heights run on those ints.
The new code is compared against the ``Fraction`` bodies it replaced,
``reference.oracle_*``, on seeded random spaces and homeos and on
the bundled examples.  A counter on ``Fraction.__new__`` pins that the
integer route builds no ``Fraction``.
"""

from collections import Counter
from fractions import Fraction as F

import pytest

from germkit.action import (
    ActionError,
    Homeo,
    Word,
    apply_homeo,
    invert_homeo,
    reduced_words,
    validate_homeo,
    word_homeo,
    _apply_pairs,
)
from germkit.blowup import (
    BlowupError,
    BlowupSpace,
    BlownPoint,
    CosetError,
    OrbitEscapeError,
    StabilizerData,
    alpha_apply,
    validate_alpha_action,
    _move_keys,
)
from germkit.examples import bundle
from germkit.fuzz import CaseGen
from germkit.leafspace import Embedding, LeafSpace, LeafSpaceError, Point, Side
from germkit.plmap import PLMap, agree_on_ray, check
from germkit.suites import SuiteConfig, _action_law_samples, _plain_samples
from reference import (
    OraclePoint, as_oracle, as_oracle_blown, key_of_oracle, oracle_alpha_apply, oracle_apply_homeo,
    oracle_canonical, oracle_contains, oracle_plain_samples,
)
from support import outcome, record_of


# -- comparisons --------------------------------------------------------------


def new_point(p):
    return Point(p.branch, p.coord)


def assert_same(new, old):
    """A new point equals its oracle: branch, a ``Fraction`` coordinate,
    hash and ``repr``."""
    assert (new.branch, new.coord) == (old.branch, old.coord)
    assert type(new.coord) is F
    assert hash(new) == hash(old)
    assert repr(new) == repr(old)


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
                    want = outcome(oracle_alpha_apply, space, w, as_oracle_blown(q))
                    got = outcome(alpha_apply, space, w, q)
                    if isinstance(want, tuple):
                        assert got == want
                    else:
                        assert_same(got.point, want.point)
                        assert got.height == want.height
                        assert got.height is None or type(got.height) is F

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "after-law-check"])
    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault"])
    def test_kept_moves_act_as_the_oracle(self, name, warm):
        """Each sample through ``alpha_apply`` in turn, on a fresh space and
        on one whose moves a law check has kept: each image, and the first
        error with every image before it, is the oracle's."""
        b = bundle(name)
        space = b.blowup
        config = SuiteConfig(plain_samples=8, interval_samples=12)
        samples = _action_law_samples(space, config)
        samples += [BlownPoint(space.marked, 0), BlownPoint(space.marked, 1)]
        far = next(p for p, w in space.orbit.items() if len(w) == b.depth)
        samples.append(BlownPoint(far, F(1, 3)))  # escapes under most words
        if warm:
            validate_alpha_action(space, samples[:-1], config.word_ball)
            assert len(space._word_cache) > 1
        errors = 0
        for w in reduced_words(sorted(space.generators), 3):
            want = []
            for q in samples:
                want.append(outcome(oracle_alpha_apply, space, w, as_oracle_blown(q)))
                if isinstance(want[-1], tuple):
                    errors += 1
                    break
            got = []
            try:
                for q in samples:
                    got.append(alpha_apply(space, w, q))
            except Exception as exc:
                got.append((type(exc), str(exc)))
            assert len(got) == len(want)
            for g, o in zip(got, want):
                if isinstance(o, tuple):
                    assert g == o
                else:
                    assert_same(g.point, o.point)
                    assert g.height == o.height
        assert errors


# -- the batch entries against the one-point references ---------------------


def first_outcome(fn, items):
    """The list of ``fn`` on each item, or the type and message of the first
    error it raises; ``fn`` returns no tuple."""
    out = []
    for item in items:
        got = outcome(fn, item)
        if isinstance(got, tuple):
            return got
        out.append(got)
    return out


def without_branch(h, branch):
    return Homeo(
        {b: t for b, t in h.branch_map.items() if b != branch},
        {b: pl for b, pl in h.branch_pl.items() if b != branch},
    )


def into_undeclared(h, branch):
    return Homeo({**h.branch_map, branch: "zz"}, h.branch_pl)


class TestApplyPairs:
    """``action._apply_pairs`` on a list of integer triples, and
    ``apply_homeo`` on each point, move it as ``oracle_apply_homeo`` does:
    the same images, and the first point's error."""

    @pytest.mark.parametrize("case", range(len(ALL_CASES)))
    def test_matches_apply_homeo(self, case):
        space, homeos, points = ALL_CASES[case]
        canon = [space.canonical(new_point(p)) for p in points]
        pairs = [(p.branch, p._n, p._d) for p in canon]
        assert {p.branch for p in points} == set(space.branches)
        broken = [without_branch(h, b) for h in homeos[:1] for b in sorted(space.branches)]
        broken += [into_undeclared(h, b) for h in homeos[:1] for b in sorted(space.branches)]
        errors = 0
        for h in homeos + broken:
            want = first_outcome(lambda p: oracle_apply_homeo(space, h, as_oracle(p)), canon)
            got = first_outcome(lambda p: apply_homeo(space, h, p), canon)
            if isinstance(want, list):
                want = [(p.branch, p.coord.numerator, p.coord.denominator) for p in want]
            else:
                errors += 1
            if isinstance(got, list):
                got = [(p.branch, p._n, p._d) for p in got]
            assert got == want
            assert outcome(_apply_pairs, space, h, pairs) == want
        assert errors


class TestPlainSamples:
    """``_plain_samples`` moves each chunk of candidates by one homeo at a
    time and selects what the one-at-a-time loop selected, moving the same
    candidates by the same homeos."""

    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault", "e3-phi-fault"])
    @pytest.mark.parametrize("want", [SuiteConfig.plain_samples, 5])
    def test_matches_the_one_at_a_time_loop(self, monkeypatch, name, want):
        import germkit.suites as suites

        space, ball = bundle(name).blowup, SuiteConfig.word_ball
        want_samples, want_moves = oracle_plain_samples(space, ball, want)
        homeos = [space.word_homeo(w) for w in reduced_words(sorted(space.generators), ball)]
        index = {id(h): i for i, h in enumerate(homeos)}
        moves = []

        def counted(base, h, pairs):
            pairs = list(pairs)
            moves.extend((index[id(h)], Point._of(*p)) for p in pairs)
            return _apply_pairs(base, h, pairs)

        monkeypatch.setattr(suites, "_apply_pairs", counted)
        samples = _plain_samples(space, ball, want)
        assert samples == want_samples and len(samples) == want
        assert sorted(moves, key=repr) == sorted(want_moves, key=repr)
        if want == SuiteConfig.plain_samples:  # at 5, no candidate hits the orbit
            per_point = Counter(p for _, p in want_moves)
            assert min(per_point.values()) < len(homeos)


class LeakyTwist(StabilizerData):
    """A stabilizer whose twist of every two-letter word is the word itself,
    so a word outside ``K`` makes ``phi_word`` raise ``CosetError``."""

    def twist(self, h, g):
        return h if len(h) == 2 else StabilizerData.twist(self, h, g)


def kernel_samples(space, depth):
    """The law samples, the fixed ends, and one point for each error the
    kernel raises."""
    samples = _action_law_samples(space, SuiteConfig(plain_samples=6, interval_samples=8))
    samples += [BlownPoint(space.marked, 0), BlownPoint(space.marked, 1)]
    off = Point(space.base.root, F(1, 7919))
    far = next(p for p, w in space.orbit.items() if len(w) == depth)
    assert off not in space.orbit
    return samples + [
        BlownPoint(Point("zz", 0)),  # undefined branch
        BlownPoint(space.marked),  # a plain point on the orbit
        BlownPoint(off, F(1, 2)),  # an interval point off the orbit
        BlownPoint(far, F(1, 3)),  # escapes the depth under most words
        BlownPoint(space.marked, F(3, 2)),  # a height the twist keeps off [0, 1]
    ]


class TestMoveKeys:
    """The kernel ``_move_keys`` against ``oracle_alpha_apply``: each key on
    its own, and whole lists, on fresh and warm spaces."""

    ERRORS = {
        ActionError: "homeomorphism undefined on branch",
        OrbitEscapeError: "maps into a blown interval",
        BlowupError: "is not a blown orbit point",
        CosetError: "is not a product of stabilizer generators",
    }

    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault", "e3-phi-fault"])
    def test_matches_the_oracle(self, name):
        b = bundle(name)
        seen = set()
        for stab in (b.stabilizer, LeakyTwist(b.stabilizer.k_generators, b.stabilizer.phi)):
            space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
            samples = kernel_samples(space, b.depth)
            keys = [q._key() for q in samples]
            for w in reduced_words(sorted(space.generators), 2):
                whole = outcome(_move_keys, space, w, keys)  # first, on a fresh word
                want = [outcome(oracle_alpha_apply, space, w, as_oracle_blown(q)) for q in samples]
                errors = {o for o in want if isinstance(o, tuple)}
                seen |= errors
                if errors:
                    assert whole in errors
                else:
                    assert whole == [key_of_oracle(o) for o in want]
                clean = [k for k, o in zip(keys, want) if not isinstance(o, tuple)]
                assert _move_keys(space, w, clean) == [
                    key_of_oracle(o) for o in want if not isinstance(o, tuple)
                ]
                for key, o in zip(keys, want):
                    got = outcome(_move_keys, space, w, [key])
                    assert got == (o if isinstance(o, tuple) else [key_of_oracle(o)])
        for kind, text in self.ERRORS.items():
            assert any(k is kind and text in m for k, m in seen), kind
        assert any("needs depth beyond" in m for _, m in seen)
        assert any("twist map left the unit interval" in m for _, m in seen)

    def test_images_are_reduced_keys_of_blown_points(self):
        b = bundle("e3")
        space = b.blowup
        samples = kernel_samples(space, b.depth)[:-5]
        for w in reduced_words(sorted(space.generators), 2):
            images = _move_keys(space, w, [q._key() for q in samples])
            assert images == [BlownPoint._from_key(k)._key() for k in images]
            blown = [BlownPoint._from_key(k) for k in images]
            assert blown == [alpha_apply(space, w, q) for q in samples]



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
        assert q == BlownPoint(p, "2/4") == BlownPoint(p, F(2, 4))
        assert hash(q) == hash(BlownPoint(p, F(2, 4))) == hash((p, (1, 2)))
        assert BlownPoint(p) != BlownPoint(p, 0) and BlownPoint(p, 0) == BlownPoint(p, F(0, 3))
        assert BlownPoint(p, 1) == BlownPoint(p, F(1)) and BlownPoint(p, 1).height == 1

    def test_hash_reads_the_integer_height(self, fraction_count):
        p = Point("r", 1)
        given = BlownPoint(p, F(2, 4))
        before = fraction_count[0]
        built = BlownPoint._from_key(("r", 1, 1, 1, 2))
        assert built == given and hash(built) == hash(given)
        assert fraction_count[0] == before and built._height is None

    def test_repr_unchanged(self):
        p = Point("b1", F(-1))
        assert repr(BlownPoint(p, F(1, 2))) == "BlownPoint(point=Point('b1', -1), height=Fraction(1, 2))"
        assert repr(BlownPoint._from_key(("b1", -1, 1, 1, 2))) == repr(BlownPoint(p, F(3, 6)))
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
    """A counter on ``PLMap.__init__`` and ``PLMap._of``: every map built,
    raw or from an integer record, checked or not."""
    init, of = PLMap.__init__, PLMap._of.__func__
    count = [0]

    def counted_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counted_of(cls, *args):
        count[0] += 1
        return of(cls, *args)

    monkeypatch.setattr(PLMap, "__init__", counted_init)
    monkeypatch.setattr(PLMap, "_of", classmethod(counted_of))
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
            for q in samples:
                alpha_apply(space, w, q)
        before = fraction_count[0]
        for w in words:
            images = [alpha_apply(space, w, q) for q in plain]
            assert len(images) == len(plain)
        assert fraction_count[0] == before
        for w in words:
            for q in samples:
                alpha_apply(space, w, q)
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
        mids = {w: [alpha_apply(space, w, q) for q in samples] for w in words}
        for inner in words:  # fill the word and phi caches
            for outer in words:
                for q in mids[inner]:
                    alpha_apply(space, outer, q)
        assert any(q.is_interval() for q in mids[words[1]])
        assert validate_alpha_action(space, samples, 4) is None
        before = fraction_count[0]
        for inner in words:
            for outer in words:
                images = [alpha_apply(space, outer, q) for q in mids[inner]]
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
        wrong = record_of(f.breakpoints, f.values, f.left_slope, f.right_slope, F(1))
        before = fraction_count[0], map_count[0]
        assert check(f) is None and check(g) is None and check(wrong) is not None
        assert agree_on_ray(f, g, at) and not agree_on_ray(f, g, below)
        assert (fraction_count[0], map_count[0]) == before
        ~f  # builds one map from a record, which shows the counter counts it
        assert map_count[0] == before[1] + 1
