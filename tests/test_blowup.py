from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from germkit import action, blowup
from germkit.action import (
    Homeo, Word, apply_homeo, identity_homeo, induced_germ, line_image, reduced_words,
    validate_homeo, word_homeo, _ray_event_set, _ray_events,
)
from germkit.blowup import (
    ActionLawViolation,
    BlownPoint,
    BlowupError,
    BlowupSpace,
    CosetError,
    CosetTableError,
    OrbitEscapeError,
    StabilizerData,
    StabilizerGeneratorError,
    alpha_apply,
    blown_induced_germ,
    injectivity_certificate,
    positive_ray_orbit_search,
    stabilizer_check,
    validate_alpha_action,
)
from germkit.examples import bundle
from germkit.germ import Germ, eventual_comparison_bound
from germkit.leafspace import Point, root_embedding
from germkit.plmap import PLMap
from germkit.suites import SuiteConfig, _action_law_case, _action_law_check, _injectivity_cases
from reference import (
    oracle_coset_rep, oracle_stabilizer_factorization, oracle_twist, oracle_validate_alpha_action,
)
from support import outcome


def blown_chart_certificate(space, e, ball):
    """The certificate's sweep with each word's germ read in the blown
    chart, through :func:`blown_induced_germ`, and the same two probes."""
    for w in reduced_words(sorted(space.generators), ball):
        if w.is_identity():
            continue
        if blown_induced_germ(space, w, e).is_identity():
            return w
        h = space.word_homeo(w)
        events = _ray_events(space.base, h, e)
        top = events[-1] if events else (0, 1)
        start = max(F(*top), eventual_comparison_bound(induced_germ(space.base, h, e)))
        for x in (start + 1, start + 1000):
            if line_image(space.base, h, e, x) == (x.numerator, x.denominator):
                return w
    return None


def built(name):
    b = bundle(name)
    return b, BlowupSpace(b.space, b.generators, b.marked, b.depth, b.stabilizer)


class TestBuild:
    def test_trivial_group_single_interval(self):
        b = bundle("e1")
        space = BlowupSpace(b.space, {}, Point("r", F(0)), 3, StabilizerData((), {}))
        assert set(space.orbit) == {Point("r", F(0))}

    def test_translation_orbit(self):
        b = bundle("e1")
        space = BlowupSpace(b.space, b.generators, Point("r", F(0)), 3, StabilizerData((), {}))
        assert {p.coord for p in space.orbit} == {F(n) for n in range(-3, 4)}
        assert space.orbit[Point("r", F(2))] == Word.parse("u u")

    def test_point_off_orbit_stays_plain(self):
        b, space = built("e1")
        q = BlownPoint(Point("r", F(1, 2)))
        assert space.contains(q)
        assert not space.contains(BlownPoint(Point("r", F(0))))

    def test_depth_zero_orbit_is_the_marked_point(self):
        b = bundle("e3")
        space = BlowupSpace(b.space, b.generators, b.marked, 0, b.stabilizer)
        assert space.orbit == {space.marked: Word()}
        with pytest.raises(BlowupError, match="orbit depth must be nonnegative"):
            BlowupSpace(b.space, b.generators, b.marked, -1, b.stabilizer)

    @pytest.mark.parametrize(
        "height, inside",
        [(F(0), True), (F(1, 2), True), (F(1), True), (F(3, 2), False), (F(-1, 2), False)],
    )
    def test_an_interval_is_closed(self, height, inside):
        b, space = built("e3")
        assert space.contains(BlownPoint(space.marked, height)) is inside

    def test_windowed_action_escapes_without_extension(self):
        from germkit.leafspace import LeafSpace, Side

        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "c0": ("r", F(0))})
        ident = PLMap.identity()
        swap = Homeo(
            {"r": "r", "c0": "c1", "c1": "c0"},
            {"r": ident, "c0": ident, "c1": ident},
        )
        # rejected when the space is built, before the orbit is expanded
        message = "generator 'v' is not a homeomorphism of the leaf space: branch 'c1' is not declared"
        with pytest.raises(BlowupError, match=message) as caught:
            BlowupSpace(L, {"v": swap}, Point("c0", F(-1)), 2, StabilizerData((), {}))
        assert type(caught.value) is BlowupError

    def test_broken_chart_map_is_rejected_at_construction(self):
        # e3's f with b1's chart tripling above the departure, where r's doubles
        b = bundle("e3")
        f = b.generators["f"]
        broken = Homeo(f.branch_map, {**f.branch_pl, "b1": PLMap.make([(0, 0)], F(1, 2), 3)})
        with pytest.raises(BlowupError, match="generator 'f' is not a homeomorphism") as caught:
            BlowupSpace(b.space, {**b.generators, "f": broken}, b.marked, b.depth, b.stabilizer)
        assert "chart maps of 'b1' and parent 'r' disagree above the departure" in str(caught.value)


class TestWordHomeoCache:
    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault", "e3-phi-fault"])
    def test_prefix_shared_cache_matches_from_scratch(self, name):
        # the space composes unchecked; the public route validates each word
        b, space = built(name)
        for w in reduced_words(sorted(b.generators), 5):
            cached = space.word_homeo(w)
            assert cached == word_homeo(b.space, b.generators, w)
            assert validate_homeo(b.space, cached) is None

    def test_validated_once_at_construction(self, monkeypatch):
        # counted wherever the package binds the check
        calls = Counter()
        real = action.validate_homeo

        def counted(space, h):
            calls[id(h)] += 1
            return real(space, h)

        for module in (action, blowup):
            monkeypatch.setattr(module, "validate_homeo", counted)
        b, space = built("e3")
        assert sorted(calls.values()) == [1] * len(b.generators)
        for w in reduced_words(sorted(b.generators), 5):
            space.word_homeo(w)
        assert sum(calls.values()) == len(b.generators)

    def test_miss_with_uncached_prefixes(self):
        b, space = built("e3")
        w = Word.parse("f k^-1 f f")
        assert space.word_homeo(w) == word_homeo(b.space, b.generators, w)
        for n in range(len(w) + 1):
            assert Word(w.letters[:n]).letters in space._word_cache
        assert space.word_homeo(Word.parse("f k^-1")) is space.word_homeo(Word.parse("f k^-1"))


class TestAlphaApply:
    def test_trivial_stabilizer_preserves_height(self):
        b, space = built("e1")
        q = BlownPoint(Point("r", F(0)), F(1, 3))
        image = alpha_apply(space, Word.parse("u u"), q)
        assert image == BlownPoint(Point("r", F(2)), F(1, 3))

    def test_stabilizer_twists_height(self):
        b, space = built("e3")
        mid = space.midpoint()
        image = alpha_apply(space, Word.parse("k"), mid)
        assert image == BlownPoint(b.marked, F(3, 4))

    def test_plain_point_moves_by_underlying_action(self):
        b, space = built("e3")
        q = BlownPoint(Point("r", F(2)))
        image = alpha_apply(space, Word.parse("f"), q)
        assert image == BlownPoint(Point("r", F(4)))

    def test_interval_to_interval_monotone(self):
        b, space = built("e3")
        heights = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for text in ("f", "k", "f k", "k^-1 f"):
            w = Word.parse(text)
            images = [
                alpha_apply(space, w, BlownPoint(b.marked, t)) for t in heights
            ]
            assert len({img.point for img in images}) == 1
            out = [img.height for img in images]
            assert out == sorted(out)
            assert out[0] == 0 and out[-1] == 1

    def test_orbit_escape_on_deep_word(self):
        b, space = built("e1")
        deep = Word.parse("u^9")
        with pytest.raises(OrbitEscapeError):
            alpha_apply(space, deep, space.midpoint())

    def test_plain_point_hitting_interval_escapes(self):
        b, space = built("e1")
        q = BlownPoint(Point("r", F(-9)))
        with pytest.raises(OrbitEscapeError):
            alpha_apply(space, Word.parse("u"), q)


class TestActionLaw:
    def test_identity_word_fixes_samples(self):
        b, space = built("e3")
        for q in (space.midpoint(), BlownPoint(Point("r", F(5)))):
            assert alpha_apply(space, Word(), q) == q

    def test_exhaustive_small_ball(self):
        b, space = built("e1")
        samples = [
            space.midpoint(),
            BlownPoint(Point("r", F(1)), F(2, 3)),
            BlownPoint(Point("r", F(1, 2))),
        ]
        assert validate_alpha_action(space, samples, ball=4) is None

    def test_corrupted_coset_table_is_caught(self):
        b, space = built("e3-coset-fault")
        samples = [space.midpoint(), BlownPoint(b.marked, F(1, 4))]
        violation = validate_alpha_action(space, samples, ball=2)
        assert violation is not None
        # replay the reported case
        lhs = alpha_apply(
            space, violation.outer * violation.inner, violation.sample
        )
        rhs = alpha_apply(
            space,
            violation.outer,
            alpha_apply(space, violation.inner, violation.sample),
        )
        assert lhs != rhs


def fresh_outcome(check, b, samples, ball, stab=None):
    """The :func:`outcome` of ``check`` on a fresh blow-up of ``b``."""
    if stab is None:
        stab = StabilizerData(b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table)
    return outcome(lambda: check(BlowupSpace(b.space, b.generators, b.marked, b.depth, stab),
                                 samples, ball))


def law_samples(b, deep):
    """The midpoint, interval points over the marked point and a depth-one
    orbit point, a plain point, and with ``deep`` an interval over an orbit
    point two letters short of the expanded depth, from which words longer
    than 2 escape."""
    space = BlowupSpace(b.space, b.generators, b.marked, b.depth, b.stabilizer)
    near = next(p for p, w in space.orbit.items() if len(w) == 1)
    far = next(p for p, w in space.orbit.items() if len(w) == b.depth - 2)
    samples = [
        space.midpoint(),
        BlownPoint(b.marked, F(1, 4)),
        BlownPoint(near, F(2, 3)),
        BlownPoint(Point(b.space.root, F(1, 2))),
    ]
    return samples + [BlownPoint(far, F(1, 3))] if deep else samples


class TestActionLawOrder:
    @pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
    @pytest.mark.parametrize("ball", [2, 3, 4])
    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault", "e3-phi-fault"])
    def test_matches_the_per_point_loop(self, name, ball, deep):
        b = bundle(name)
        samples = law_samples(b, deep)
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, ball)
        assert fresh_outcome(validate_alpha_action, b, samples, ball) == want

    def test_outcomes_cover_none_violations_and_errors(self):
        kinds = {
            type(fresh_outcome(oracle_validate_alpha_action, bundle(name),
                               law_samples(bundle(name), deep), 4))
            for name in ("e1", "e3-coset-fault")
            for deep in (False, True)
        }
        assert kinds == {type(None), ActionLawViolation, tuple}

    def test_violation_wins_over_a_later_samples_error_in_its_pair(self):
        # e3-coset-fault first breaks the law at (outer f, inner k) on the
        # midpoint.  In that same pair the second sample's stepwise image
        # needs twist(f, "k f"), which this stabilizer puts outside K, so
        # evaluating the pair's images before comparing the first would
        # raise CosetError instead.
        b = bundle("e3-coset-fault")

        class Leaky(StabilizerData):
            def twist(self, h, g):
                if h == Word.parse("f") and g == Word.parse("k f"):
                    return Word.parse("f")
                return StabilizerData.twist(self, h, g)

        stab = Leaky(b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table)
        space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
        samples = [space.midpoint(), BlownPoint(Point("b1", F(-1, 2)), F(1, 2))]
        assert space.orbit[samples[1].point] == Word.parse("f")
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, 2, stab)
        assert isinstance(want, ActionLawViolation)
        assert (want.outer, want.inner, want.sample) == (Word.parse("f"), Word.parse("k"), samples[0])
        assert fresh_outcome(validate_alpha_action, b, samples, 2, stab) == want
        with pytest.raises(CosetError):
            validate_alpha_action(space, samples[1:], 2)

    def test_each_call_fetches_its_homeo_once_and_each_twist_once(self, monkeypatch):
        b, space = built("e3")
        samples = law_samples(b, deep=False)
        calls: Counter = Counter()
        twists: Counter = Counter()
        fetches = 0
        real_move = blowup._move_keys
        real_homeo = BlowupSpace.word_homeo
        real_twist = StabilizerData.twist

        def counted_move(space, h, keys):
            calls[h.letters] += 1
            return real_move(space, h, keys)

        def counted_homeo(self, word):
            nonlocal fetches
            fetches += 1
            return real_homeo(self, word)

        def counted_twist(self, h, g):
            twists[h.letters, g.letters] += 1
            return real_twist(self, h, g)

        monkeypatch.setattr(blowup, "_move_keys", counted_move)
        monkeypatch.setattr(BlowupSpace, "word_homeo", counted_homeo)
        monkeypatch.setattr(StabilizerData, "twist", counted_twist)
        cached = len(space._word_cache)
        assert validate_alpha_action(space, samples, ball=4) is None
        # a miss fetches its prefix once more, through the same method
        misses = len(space._word_cache) - cached
        assert 0 < fetches <= sum(calls.values()) + misses
        assert twists and all(n <= calls[h] for (h, _), n in twists.items())


def twist_raising_at(h_text, g_text):
    """A stabilizer class whose twist raises ``CosetError`` for one ``(h, g)``."""
    h_bad, g_bad = Word.parse(h_text), Word.parse(g_text)

    class Raising(StabilizerData):
        def twist(self, h, g):
            if h == h_bad and g == g_bad:
                raise CosetError(f"no twist for {h_text!r} at {g_text!r}")
            return StabilizerData.twist(self, h, g)

    return Raising


def counted_alpha(monkeypatch):
    """Count calls of the kernel ``_move_keys``, and the images they return,
    by word."""
    calls: Counter = Counter()
    images: Counter = Counter()
    real_move = blowup._move_keys

    def counted_move(space, h, keys):
        calls[h.letters] += 1
        moved = real_move(space, h, keys)
        images[h.letters] += len(moved)
        return moved

    monkeypatch.setattr(blowup, "_move_keys", counted_move)
    return calls, images


class TestActionLawTriePass:
    """``validate_alpha_action`` is one pass over the pairs in the order of
    the per-point loop, so its result, or what it raises, is always the
    per-point loop's, also where a pass in another order, such as a walk of
    the ball as a suffix trie, would meet an error or a violation first."""

    def test_pass_error_before_the_loops_violation(self):
        # e3-coset-fault breaks the law first at (outer f, inner k) on the
        # midpoint.  With this stabilizer the identity raises on the images
        # of "f f".  The ordered loop applies it there only at inner "f f",
        # after inner k; a suffix-trie walk meets the split 1 * "f f" first.
        b, plain = built("e3-coset-fault")
        far = apply_homeo(b.space, plain.word_homeo(Word.parse("f f")), b.marked)
        stab = twist_raising_at("1", str(plain.orbit[far]))(
            b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table
        )
        space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
        samples = [space.midpoint()]
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, 2, stab)
        assert isinstance(want, ActionLawViolation)
        assert (want.outer, want.inner) == (Word.parse("f"), Word.parse("k"))
        assert fresh_outcome(validate_alpha_action, b, samples, 2, stab) == want

    def test_pass_violation_before_the_loops_error(self):
        # The ordered loop applies f^-1 to the midpoint at inner 1, before
        # its violation at (f, k); a suffix-trie walk would apply f^-1 over
        # the marked point only in the subtree of f^-1, after that of k.
        b = bundle("e3-coset-fault")
        stab = twist_raising_at("f^-1", "1")(
            b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table
        )
        space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
        samples = [space.midpoint()]
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, 2, stab)
        assert want == (CosetError, "no twist for 'f^-1' at '1'")
        assert fresh_outcome(validate_alpha_action, b, samples, 2, stab) == want

    @pytest.mark.parametrize("ball", [0, -1])
    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault"])
    def test_balls_of_the_identity(self, name, ball):
        b = bundle(name)
        samples = law_samples(b, deep=True)
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, ball)
        assert want is None
        assert fresh_outcome(validate_alpha_action, b, samples, ball) == want

    @pytest.mark.parametrize("ball", [0, -1])
    def test_identity_violation(self, ball):
        # a twist of the empty word off the identity moves the midpoint
        b = bundle("e3")

        class Moving(StabilizerData):
            def twist(self, h, g):
                return Word.parse("k") if h.is_identity() else StabilizerData.twist(self, h, g)

        stab = Moving(b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table)
        samples = law_samples(b, deep=False)
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, ball, stab)
        assert isinstance(want, ActionLawViolation)
        assert (want.outer, want.inner, want.sample) == (Word(), Word(), samples[0])
        assert fresh_outcome(validate_alpha_action, b, samples, ball, stab) == want

    def test_identity_violation_wins_over_a_later_samples_error(self):
        # the empty word's images are checked as they are moved: the
        # midpoint's violation comes before the off-orbit interval's error,
        # though the batch move of both raises that error
        b = bundle("e3")

        class Moving(StabilizerData):
            def twist(self, h, g):
                return Word.parse("k") if h.is_identity() else StabilizerData.twist(self, h, g)

        stab = Moving(b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table)
        samples = [BlownPoint(b.marked, F(1, 2)), BlownPoint(Point(b.space.root, F(1, 2)), F(1, 2))]
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, 1, stab)
        assert isinstance(want, ActionLawViolation) and want.sample == samples[0]
        assert fresh_outcome(validate_alpha_action, b, samples, 1, stab) == want
        assert fresh_outcome(validate_alpha_action, b, samples[1:], 1, stab)[0] is BlowupError

    def test_a_words_first_sample_error_wins_over_a_later_ones(self):
        # Under u the interval over the last orbit point escapes the depth,
        # and the plain point after it lands on the blown interval at -8;
        # the kernel moves a list's plain points first, so the list raises
        # the second sample's error, and the per-point loop the first's.
        b = bundle("e1")
        samples = [BlownPoint(Point("r", b.depth), F(1, 2)), BlownPoint(Point("r", -b.depth - 1))]
        want = fresh_outcome(oracle_validate_alpha_action, b, samples, 1)
        assert want == (OrbitEscapeError,
                        "image of orbit point Point('r', 8) under 'u' needs depth beyond 8")
        assert fresh_outcome(validate_alpha_action, b, samples, 1) == want

    def test_ball_minus_one_applies_only_the_identity(self, monkeypatch):
        b, space = built("e3")
        calls, _ = counted_alpha(monkeypatch)
        assert validate_alpha_action(space, law_samples(b, deep=False), -1) is None
        assert calls == {(): 1}

    def test_empty_samples_fetch_no_homeo(self, monkeypatch):
        b, space = built("e3-coset-fault")
        fetched = []
        monkeypatch.setattr(BlowupSpace, "word_homeo", lambda self, word: fetched.append(word))
        assert oracle_validate_alpha_action(space, [], 4) is None
        assert validate_alpha_action(space, [], 4) is None
        assert fetched == []

    @pytest.mark.parametrize("name, calls_made", [("e1", 41), ("e3", 865)])
    def test_work_of_the_one_pass(self, monkeypatch, name, calls_made):
        # the default suite samples: 100 plain points and 20 interval points;
        # one call per ball word on the samples, then one per other pair
        b, samples, ball = _action_law_case(bundle(name), SuiteConfig())
        space = b.blowup
        assert (len(samples), ball) == (120, 4)
        calls, images = counted_alpha(monkeypatch)
        assert validate_alpha_action(space, samples, ball) is None
        assert sum(calls.values()) == calls_made <= 1200
        assert sum(images.values()) == 120 * calls_made

    @pytest.mark.parametrize("name, plain", [("e1", True), ("e3", True), ("e3-coset-fault", False)])
    def test_each_ball_word_moves_the_samples_once(self, monkeypatch, name, plain):
        # the default suite samples, or the bundled fault case's interval
        # samples, whose check stops at a violation
        b, samples, ball = _action_law_case(bundle(name), SuiteConfig(), plain)
        space = b.blowup
        keys = [q._key() for q in samples]
        moved: Counter = Counter()
        real_move = blowup._move_keys

        def counted_move(space, h, given):
            if list(given) == keys:
                moved[h.letters] += 1
            return real_move(space, h, given)

        monkeypatch.setattr(blowup, "_move_keys", counted_move)
        found = validate_alpha_action(space, samples, ball)
        assert (found is None) is plain
        assert moved == {w.letters: 1 for w in reduced_words(sorted(b.generators), ball)}


class TestStoredMoves:
    """A space keeps each word's move of an orbit point (image point and
    height map) beside the word's homeo; a warm call evaluates the kept
    height map and must act, and fail, exactly as a cold one."""

    def test_interval_point_off_the_orbit_raises_on_every_call(self):
        b, space = built("e3")
        w = Word.parse("f")
        samples = law_samples(b, deep=False)
        for q in samples:
            if q.is_interval():
                alpha_apply(space, w, q)
        off = BlownPoint(Point(b.space.root, F(1, 2)), F(1, 2))
        assert off.point not in space.orbit
        for _ in range(2):
            with pytest.raises(BlowupError, match="is not a blown orbit point"):
                alpha_apply(space, w, off)
        assert BlownPoint(off.point)._key() not in space._word_cache[w.letters][1]

    def test_escaping_move_raises_on_every_call_and_is_never_kept(self):
        b, space = built("e1")
        w = Word.parse("u")
        far = next(
            p for p, g in space.orbit.items() if len(g) == b.depth and g.letters[0] == ("u", 1)
        )
        assert alpha_apply(space, w, space.midpoint()).point in space.orbit
        moves = space._word_cache[w.letters][1]
        marked = BlownPoint(b.marked)._key()
        assert list(moves) == [marked]
        for height in (F(1, 2), F(1, 2), F(1, 3)):
            with pytest.raises(OrbitEscapeError, match="needs depth"):
                alpha_apply(space, w, BlownPoint(far, height))
        assert list(moves) == [marked]

    def test_kept_moves_share_the_orbit_index_keys(self):
        # a move holds the index's own key objects, so keeping it costs no
        # key tuple of its own
        b, space = built("e3")
        assert validate_alpha_action(space, law_samples(b, deep=False), ball=3) is None
        index = space._orbit_keys
        kept = [
            (key, image)
            for _, moves in space._word_cache.values()
            for key, (image, _) in moves.items()
        ]
        assert kept
        for key, image in kept:
            assert key is index[key][0] and image is index[image][0]

    def test_a_kept_height_map_is_checked_at_every_height(self):
        # phi is the identity outside [0, 1], so a height of 3/2 stays out
        b, space = built("e3")
        k = Word.parse("k")
        assert alpha_apply(space, k, space.midpoint()) == BlownPoint(b.marked, F(3, 4))
        assert BlownPoint(b.marked)._key() in space._word_cache[k.letters][1]
        for _ in range(2):
            with pytest.raises(BlowupError, match="twist map left the unit interval"):
                alpha_apply(space, k, BlownPoint(b.marked, F(3, 2)))

    def test_a_wrong_kept_move_breaks_the_law(self):
        # The combined route reads the product word's own move, never its
        # factors' moves, so a wrong move of f alone shows as a violation.
        b, space = built("e3")
        samples = law_samples(b, deep=False)
        assert validate_alpha_action(space, samples, ball=4) is None
        f = Word.parse("f")
        moves = space._word_cache[f.letters][1]
        marked = BlownPoint(b.marked)._key()
        image, height_map = moves[marked]
        moves[marked] = image, b.stabilizer.phi["k"] * height_map
        violation = validate_alpha_action(space, samples, ball=4)
        assert violation is not None
        assert f in (violation.outer, violation.inner)

    def test_twist_calls_of_one_law_check(self, monkeypatch):
        """On e3 at ball 4 with the suite's 120 samples, a fresh space
        twists each (word, orbit point) pair once: 3,727 calls, against
        10,458 when each call kept its height maps only for itself."""
        b, samples, ball = _action_law_case(bundle("e3"), SuiteConfig())
        twists: Counter = Counter()
        real_twist = StabilizerData.twist

        def counted_twist(self, h, g):
            twists[h.letters, g.letters] += 1
            return real_twist(self, h, g)

        monkeypatch.setattr(StabilizerData, "twist", counted_twist)
        assert validate_alpha_action(b.blowup, samples, ball) is None
        assert sum(twists.values()) == len(twists) == 3727
        assert validate_alpha_action(b.blowup, samples, ball) is None
        assert sum(twists.values()) == 3727


class TestCosets:
    def test_default_rep_strips_stabilizer_tail(self):
        b = bundle("e3")
        stab = b.stabilizer
        assert stab.coset_rep(Word.parse("f k k")) == Word.parse("f")
        assert stab.coset_rep(Word.parse("k^-1")) == Word()
        assert stab.coset_rep(Word()) == Word()

    def test_twist_lands_in_stabilizer(self):
        b = bundle("e3")
        stab = b.stabilizer
        for h in ("f", "k", "f k^-1", "k f"):
            for g in ("1", "f", "f k"):
                twist = stab.twist(Word.parse(h), Word.parse(g))
                assert stab.in_stabilizer(twist)

    def test_membership_factorization(self):
        b = bundle("e3")
        stab = b.stabilizer
        assert stab.stabilizer_factorization(Word.parse("k k k")) == (("k", 1),) * 3
        assert stab.stabilizer_factorization(Word.parse("f")) is None

    @pytest.mark.parametrize(
        "generators, index",
        [(("k^2",), 0), (("k", "k f k^-1"), 1), (("k", "k^-1"), 1), (("1",), 0)],
    )
    def test_generators_must_be_distinct_letters(self, generators, index):
        # powers and longer words break greedy factorization and tail stripping
        phi = bundle("e3").stabilizer.phi["k"]
        words = tuple(Word.parse(g) for g in generators)
        with pytest.raises(StabilizerGeneratorError) as info:
            StabilizerData(words, {str(w): phi for w in words})
        assert info.value.index == index

    def test_foreign_twist_rejected(self):
        b = bundle("e3")
        with pytest.raises(CosetError):
            b.stabilizer.phi_word(Word.parse("f"))

    def test_alternative_representatives_still_act(self):
        # Shifting every nontrivial representative inside its coset changes
        # interval heights exactly when the twists' images differ, but the
        # action law survives.
        b, space = built("e3")

        class Shifted(StabilizerData):
            def coset_rep(self, word):
                rep = StabilizerData.coset_rep(self, word)
                if rep.is_identity():
                    return rep
                return rep * Word.parse("k")

        alt = Shifted(b.stabilizer.k_generators, b.stabilizer.phi)
        alt_space = BlowupSpace(b.space, b.generators, b.marked, b.depth, alt)
        samples = [alt_space.midpoint(), BlownPoint(b.marked, F(1, 5))]
        assert validate_alpha_action(alt_space, samples, ball=3) is None
        w = Word.parse("f")
        twist_default = b.stabilizer.twist(w, Word())
        twist_alt = alt.twist(w, Word())
        assert alt.in_stabilizer(twist_alt)
        same_phi = b.stabilizer.phi_word(twist_default) == alt.phi_word(twist_alt)
        lhs = alpha_apply(space, w, space.midpoint())
        rhs = alpha_apply(alt_space, w, alt_space.midpoint())
        assert (lhs == rhs) == same_phi


PHI = bundle("e3").stabilizer.phi["k"]
# K = <k>, <k^-1> and <>, and <k> with e3-coset-fault's override
LETTER_TABLES = {
    "k": StabilizerData((Word.parse("k"),), {"k": PHI}),
    "k^-1": StabilizerData((Word.parse("k^-1"),), {"k^-1": PHI}),
    "trivial": StabilizerData((), {}),
    "k-with-table": StabilizerData((Word.parse("k"),), {"k": PHI}, {"f": Word.parse("f k")}),
}


class TestLetterTable:
    @pytest.mark.parametrize("name", sorted(LETTER_TABLES))
    def test_factorization_membership_and_reps_match_the_oracles(self, name):
        stab = LETTER_TABLES[name]
        for w in reduced_words(("f", "k"), 6):
            factors = oracle_stabilizer_factorization(stab, w)
            assert stab.stabilizer_factorization(w) == factors, str(w)
            assert stab.in_stabilizer(w) == (factors is not None), str(w)
            assert stab.coset_rep(w) == oracle_coset_rep(stab, w), str(w)

    @pytest.mark.parametrize("name", sorted(LETTER_TABLES))
    def test_twist_matches_the_oracle(self, name):
        stab = LETTER_TABLES[name]
        words = reduced_words(("f", "k"), 3)
        for h in words:
            for g in words:
                assert stab.twist(h, g) == oracle_twist(stab, h, g), (str(h), str(g))

    def test_inverse_generator_keys_phi_with_flipped_exponents(self):
        stab = LETTER_TABLES["k^-1"]
        assert stab.stabilizer_factorization(Word.parse("k^-1 k^-1")) == (("k^-1", 1),) * 2
        assert stab.stabilizer_factorization(Word.parse("k")) == (("k^-1", -1),)
        assert stab.stabilizer_factorization(Word.parse("k^-1 f")) is None
        assert stab.phi_word(Word.parse("k")) == ~PHI
        assert stab.coset_rep(Word.parse("f k k")) == Word.parse("f")


class TestCosetTableRules:
    """A ``coset_table`` entry is checked when ``StabilizerData`` is built."""

    K = (Word.parse("k"),)

    def stab(self, table):
        return StabilizerData(self.K, {"k": PHI}, table)

    @pytest.mark.parametrize("key", ["f^1", "f k k^-1", "f  k", "f^x", ""])
    def test_key_not_the_text_of_a_reduced_word(self, key):
        with pytest.raises(CosetTableError) as info:
            self.stab({key: Word.parse("f")})
        assert isinstance(info.value, CosetError)
        assert (info.value.key, info.value.part) == (key, "word")
        assert repr(key) in str(info.value)

    # ("f", "k") was accepted before, and twist(f, 1) then returned k^-1 f
    @pytest.mark.parametrize("key, rep", [("f", "k"), ("f", "1"), ("f k", "f k f"), ("1", "f")])
    def test_rep_outside_the_keys_coset(self, key, rep):
        with pytest.raises(CosetTableError, match="not in the coset") as info:
            self.stab({key: Word.parse(rep)})
        assert (info.value.key, info.value.part) == (key, "rep")

    def test_rep_inside_the_coset_is_kept(self):
        stab = self.stab({"f": Word.parse("f k^-1 k^-1"), "1": Word.parse("k"), "f k f": Word.parse("f k f")})
        assert stab.coset_rep(Word.parse("f")) == Word.parse("f k^-2")
        assert bundle("e3-coset-fault").stabilizer.coset_table == {"f": Word.parse("f k")}

    def test_fault_check_prints_no_word_to_look_up_a_rep(self, monkeypatch):
        """The table is read by letters, and the fault's payload is the one
        the text-keyed lookup gives."""
        target, config = bundle("e3-coset-fault"), SuiteConfig()
        rep, text = StabilizerData.coset_rep, Word.__str__
        inside, calls, printed = [False], [0], [0]

        def counted_rep(self, word):
            inside[0] = True
            calls[0] += 1
            try:
                return rep(self, word)
            finally:
                inside[0] = False

        def counted_str(self):
            printed[0] += inside[0]
            return text(self)

        monkeypatch.setattr(StabilizerData, "coset_rep", counted_rep)
        monkeypatch.setattr(Word, "__str__", counted_str)
        payload = _action_law_check(_action_law_case(target, config, plain=False))
        assert payload is not None and calls[0] > 1000 and printed[0] == 0
        monkeypatch.setattr(StabilizerData, "coset_rep", oracle_coset_rep)
        assert _action_law_check(_action_law_case(target, config, plain=False)) == payload


class TestStabilizerCheck:
    def test_free_example_has_trivial_ball_stabilizer(self):
        b, space = built("e3")
        assert stabilizer_check(space, ball=5) is None

    def test_phi_fault_reports_the_generator(self):
        b, space = built("e3-phi-fault")
        assert stabilizer_check(space, ball=5) == Word.parse("k")

    def test_misdeclared_stabilizer_rejected(self):
        b = bundle("e3")
        wrong = StabilizerData((Word.parse("f"),), {"f": b.stabilizer.phi["k"]})
        with pytest.raises(BlowupError):
            BlowupSpace(b.space, b.generators, b.marked, b.depth, wrong)

    def test_phi_validation(self):
        # construction checks each phi map, one rule at a time
        k = (Word.parse("k"),)
        for name in ("e3", "e3-phi-fault"):
            StabilizerData(k, bundle(name).stabilizer.phi)
        for phi, message in [
            (PLMap.affine(1, F(1, 10)), "phi['k'] does not fix 0 and 1"),
            (PLMap.make([(0, 0), (1, 1)], 2, 2), "phi['k'] is not the identity outside [0, 1]"),
            (
                PLMap.make([(-2, -2), (-1, F(-1, 2)), (0, 0), (1, 1)], 1, 1),
                "phi['k'] moves points outside [0, 1]",
            ),
        ]:
            with pytest.raises(BlowupError) as raised:
                StabilizerData(k, {"k": phi})
            assert str(raised.value) == message

    def test_e3_stabilizer_horizon(self):
        # the first ball word fixing the marked midpoint has length 6: it
        # fixes the marked point although it is not in K
        b, space = built("e3")
        w = Word.parse("f k f f k f^-1")
        assert apply_homeo(b.space, word_homeo(b.space, b.generators, w), b.marked) == b.marked
        assert not b.stabilizer.in_stabilizer(w)
        assert stabilizer_check(space, ball=5) is None
        assert stabilizer_check(space, ball=6) == w

    def test_e3_action_is_not_faithful(self):
        b = bundle("e3")
        comm = lambda x, y: x * y * ~x * ~y
        c = comm(Word.parse("f k f^-1 k^-1"), Word.parse("f^-1 k f k^-1"))
        f4 = Word.parse("f^4")
        w = comm(c, f4 * c * ~f4)
        assert len(w) == 66
        assert word_homeo(b.space, b.generators, w) == identity_homeo(b.space)


def orbit_graph(b, depth):
    """Vertices and edges of the depth-``depth`` orbit of ``b``'s marked
    point: one edge per orbit point and generator whose image lies in the
    orbit."""
    space = BlowupSpace(b.space, b.generators, b.marked, depth, b.stabilizer)
    edges = sum(
        apply_homeo(b.space, h, p) in space.orbit
        for p in space.orbit for h in b.generators.values()
    )
    return len(space.orbit), edges


class TestOrbitGraph:
    """The orbit's Schreier graph, whose cycle rank ``E - V + 1`` counts the
    independent closed walks at the marked point."""

    def test_e3_sizes_edges_and_cycle_rank(self):
        b = bundle("e3")
        graphs = [orbit_graph(b, depth) for depth in range(7)]
        assert [v for v, _ in graphs] == [1, 3, 9, 25, 66, 164, 407]
        assert [e for _, e in graphs] == [1, 3, 9, 28, 77, 196, 488]
        assert [e - v + 1 for v, e in graphs] == [1, 1, 1, 4, 12, 33, 82]

    def test_e1_orbit_is_a_path(self):
        b = bundle("e1")
        assert [orbit_graph(b, depth) for depth in range(9)] == [
            (2 * depth + 1, 2 * depth) for depth in range(9)
        ]

    def test_a_fixing_word_walks_inside_the_depth_three_orbit(self):
        # f k f f k f^-1 fixes the marked point; each of its suffixes moves
        # it to a point of the depth-3 orbit, so the walk is a closed one there
        b = bundle("e3")
        space = BlowupSpace(b.space, b.generators, b.marked, 3, b.stabilizer)
        letters = Word.parse("f k f f k f^-1").letters
        images = [
            apply_homeo(b.space, word_homeo(b.space, b.generators, Word(letters[i:])), space.marked)
            for i in range(len(letters) + 1)
        ]
        assert all(p in space.orbit for p in images)
        assert images[0] == images[-1] == space.marked


class TestOrbitSearch:
    def test_translation_reaches_ray(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        found = positive_ray_orbit_search(space, e, F(5), ball=8)
        assert found == Word.parse("u^6")

    def test_already_over_the_ray(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        assert positive_ray_orbit_search(space, e, F(-1), ball=8) == Word()

    def test_exhausted_ball(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        assert positive_ray_orbit_search(space, e, F(20), ball=4) is None

    def test_orbit_off_the_line_exhausts(self):
        b, space = built("e3")
        e = root_embedding(b.space)
        assert positive_ray_orbit_search(space, e, F(0), ball=5) is None

    def test_ball_beyond_depth_rejected(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        with pytest.raises(BlowupError):
            positive_ray_orbit_search(space, e, F(0), ball=99)


class TestBlownGerm:
    def test_translation_through_inserted_intervals(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        assert blown_induced_germ(space, Word.parse("u"), e) == Germ(1, 1)
        assert blown_induced_germ(space, Word.parse("u^-1 u"), e) == Germ.identity()

    def test_off_line_orbit_keeps_base_germ(self):
        b, space = built("e3")
        e = root_embedding(b.space)
        assert blown_induced_germ(space, Word.parse("f"), e) == Germ(2, 0)
        assert blown_induced_germ(space, Word.parse("k"), e) == Germ(3, 1)

    def test_dilation_germ_is_conjugated_by_insertions(self):
        # A dilation through on-line insertions picks up the inserted length.
        from germkit.action import Homeo
        from germkit.leafspace import LeafSpace, Side

        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
        double = Homeo({"r": "r"}, {"r": PLMap.affine(2, 0)})
        space = BlowupSpace(L, {"d": double}, Point("r", F(1)), 2, StabilizerData((), {}))
        e = root_embedding(L)
        count = len(space.orbit)  # insertions on the line: 1/4, 1/2, 1, 2, 4
        germ = blown_induced_germ(space, Word.parse("d"), e)
        assert germ == Germ(2, count * (1 - 2))

    def test_e3_germ_horizon(self):
        # e3's shortest nontrivial word with trivial blown germ: the
        # injectivity certificate holds on e3 up to ball 9 and names this
        # word at ball 10
        b, space = built("e3")
        w = Word.parse("f f k f^-1 f^-1 k f k^-1 f^-1 k^-1")
        assert blown_induced_germ(space, w, root_embedding(b.space)) == Germ.identity()
        assert b.marked == Point("b1", F(-1))
        assert apply_homeo(b.space, space.word_homeo(w), b.marked) == Point("b1", F(-29, 20))

    def test_certificates(self):
        for name in ("e1", "e3"):
            b, space = built(name)
            e = root_embedding(b.space)
            assert injectivity_certificate(space, e, ball=4) is None

    def test_certificate_catches_trivial_germ(self):
        # the branch swap has trivial germs, so the certificate must name a word
        bb = bundle("e2")
        space = BlowupSpace(bb.space, bb.generators, Point("b", F(-1)), 2, StabilizerData((), {}))
        e = root_embedding(bb.space)
        failing = injectivity_certificate(space, e, ball=2)
        assert failing is not None and len(failing) >= 1

    def test_certificate_never_scans_the_orbit(self, monkeypatch):
        # The certificate tests d(w) itself, so it counts no line
        # insertions; its probes at plain points far up the line make no
        # containment test either.
        from germkit.leafspace import Embedding

        b, space = built("e3")
        calls = 0
        real_contains = Embedding.contains

        def counted(self, base, p):
            nonlocal calls
            calls += 1
            return real_contains(self, base, p)

        monkeypatch.setattr(Embedding, "contains", counted)
        assert injectivity_certificate(space, root_embedding(b.space), ball=4) is None
        assert calls == 0 and len(space.orbit) == 407

    def test_certificate_keeps_no_ray_record(self):
        # each word's event set is built for its top and not kept
        b, space = built("e3")
        assert injectivity_certificate(space, root_embedding(b.space), ball=4) is None
        homeos = [h for h, _ in space._word_cache.values()]
        assert len(homeos) == 161 and all(h._events == h._overlaps == {} for h in homeos)

    @pytest.mark.parametrize("name", ["e1", "e3"])
    def test_certificate_top_is_the_sorted_tables_top(self, name, monkeypatch):
        # the certificate's maximum of the event set is the sorted table's
        # top, so each word's probes start one above it or the germ's bound
        b, space = built(name)
        e = root_embedding(b.space)
        probes = []

        def recording(base, h, line, x):
            probes.append(x)
            return line_image(base, h, line, x)

        monkeypatch.setattr(blowup, "line_image", recording)
        assert injectivity_certificate(space, e, ball=5) is None
        expected = []
        for w in reduced_words(sorted(b.generators), 5)[1:]:
            h = space.word_homeo(w)
            events = _ray_events(b.space, h, e)
            top = events[-1] if events else (0, 1)
            assert max(_ray_event_set(b.space, h, e), key=lambda p: F(*p), default=(0, 1)) == top
            start = max(F(*top), eventual_comparison_bound(induced_germ(b.space, h, e)))
            expected += [start + 1, start + 1000]
        assert probes == expected

    @pytest.mark.parametrize("ball", [0, 1])
    def test_certificate_rejects_an_undeclared_line(self, ball):
        from germkit.leafspace import Embedding, LeafSpaceError

        b, space = built("e3")
        with pytest.raises(LeafSpaceError, match="unknown branch 'zz'"):
            injectivity_certificate(space, Embedding("zz"), ball=ball)

    @pytest.mark.parametrize("name", ["e1", "e3"])
    def test_blown_germ_is_trivial_exactly_when_d_is(self, name):
        # the lemma: the blown germ is d(w) conjugated by a translation
        b, space = built(name)
        e = root_embedding(b.space)
        words = [w for w in reduced_words(sorted(b.generators), 5) if not w.is_identity()]
        if name == "e3":
            words.append(Word.parse("f f k f^-1 f^-1 k f k^-1 f^-1 k^-1"))
        trivial = 0
        for w in words:
            d = induced_germ(b.space, space.word_homeo(w), e)
            assert blown_induced_germ(space, w, e).is_identity() == d.is_identity(), str(w)
            trivial += d.is_identity()
        assert trivial == (name == "e3")  # only the horizon word

    @pytest.mark.parametrize("case", ["e1", "e3", "e2-swap", "frozen-e1"])
    def test_certificate_matches_the_blown_chart_sweep(self, case):
        if case == "e2-swap":
            bb = bundle("e2")
            space = BlowupSpace(bb.space, bb.generators, Point("b", F(-1)), 2, StabilizerData((), {}))
        elif case == "frozen-e1":
            frozen = {"u": Homeo({"r": "r"}, {"r": PLMap.identity()})}
            bb = replace(bundle("e1"), generators=frozen)
            space = BlowupSpace(bb.space, bb.generators, bb.marked, bb.depth, bb.stabilizer)
        else:
            bb, space = built(case)
        e = root_embedding(bb.space)
        found = [injectivity_certificate(space, e, ball) for ball in range(6)]
        assert found == [blown_chart_certificate(space, e, ball) for ball in range(6)]
        assert (found[5] is None) == (case in ("e1", "e3"))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_certificate_case_count_is_the_nontrivial_ball_size(self, r):
        # the suite counts the ball by its closed form, without listing it
        f = bundle("e3").generators["f"]
        target = replace(bundle("e3"), generators={name: f for name in "abc"[:r]})
        for ball in range(7):
            (count, case), = _injectivity_cases(SuiteConfig(stabilizer_ball=ball), [target])
            assert case == (target, ball)
            assert count == len(reduced_words(sorted(target.generators), ball)) - 1
