from collections import Counter
from fractions import Fraction as F

import pytest

from germkit import blowup
from germkit.action import Word, apply_homeo, reduced_words, validate_homeo, word_homeo
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
from germkit.germ import Germ
from germkit.leafspace import Point, root_embedding
from germkit.plmap import PLMap
from germkit.suites import SuiteConfig, _action_law_case, _action_law_check


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

    def test_classification_preserved(self):
        for name in ("e1", "e2", "e3"):
            b = bundle(name)
            marked = b.marked or Point(b.space.root, F(-5))
            space = BlowupSpace(b.space, b.generators, marked, 2, StabilizerData((), {}))
            assert space.classify() is b.space.classify()

    def test_windowed_action_escapes_without_extension(self):
        from germkit.action import Homeo
        from germkit.leafspace import LeafSpace, Side
        from germkit.plmap import PLMap

        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "c0": ("r", F(0))})
        ident = PLMap.identity()
        swap = Homeo(
            {"r": "r", "c0": "c1", "c1": "c0"},
            {"r": ident, "c0": ident, "c1": ident},
        )
        with pytest.raises(OrbitEscapeError):
            BlowupSpace(L, {"v": swap}, Point("c0", F(-1)), 2, StabilizerData((), {}))


class TestWordHomeoCache:
    @pytest.mark.parametrize("name", ["e1", "e3"])
    def test_prefix_shared_cache_matches_from_scratch(self, name):
        b, space = built(name)
        for w in reduced_words(sorted(b.generators), 4):
            cached = space.word_homeo(w)
            assert cached == word_homeo(b.space, b.generators, w)
            assert validate_homeo(b.space, cached) is None

    def test_miss_with_uncached_prefixes(self):
        b, space = built("e3")
        w = Word.parse("f k^-1 f f")
        assert space.word_homeo(w) == word_homeo(b.space, b.generators, w)
        for n in range(len(w) + 1):
            assert Word(w.letters[:n]).letters in space._homeo_cache
        assert space.word_homeo(Word.parse("f k^-1")) is space.word_homeo(Word.parse("f k^-1"))

    def test_prefix_of_the_empty_word_is_rejected(self):
        b, space = built("e1")
        with pytest.raises(ValueError, match="prefix"):
            word_homeo(b.space, b.generators, Word(), prefix=space.word_homeo(Word()))


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


def oracle_validate_alpha_action(space, samples, ball):
    """The action-law check as it ran before it applied each word to the
    whole sample list: one ``alpha_apply`` per point, stepwise then combined.
    Kept here only as the reference for the evaluation order."""
    words = reduced_words(sorted(space.generators), ball)
    empty = Word()
    for q in samples:
        image = alpha_apply(space, empty, q)
        if image != q:
            return ActionLawViolation(empty, empty, q, image, q)
    for inner in words:
        budget = ball - len(inner)
        if budget < 0:
            continue
        mids = [alpha_apply(space, inner, q) for q in samples]
        for outer in words:
            if len(outer) > budget:
                continue
            product = outer * inner
            for q, mid in zip(samples, mids):
                stepwise = alpha_apply(space, outer, mid)
                combined = alpha_apply(space, product, q)
                if combined != stepwise:
                    return ActionLawViolation(outer, inner, q, combined, stepwise)
    return None


def outcome(check, b, samples, ball, stab=None):
    """What ``check`` gives on a fresh blow-up of ``b``: its result, or the
    type and message of what it raised."""
    if stab is None:
        stab = StabilizerData(b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table)
    space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
    try:
        return check(space, samples, ball)
    except Exception as exc:
        return type(exc), str(exc)


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
        want = outcome(oracle_validate_alpha_action, b, samples, ball)
        assert outcome(validate_alpha_action, b, samples, ball) == want

    def test_outcomes_cover_none_violations_and_errors(self):
        kinds = {
            type(outcome(oracle_validate_alpha_action, bundle(name), law_samples(bundle(name), deep), 4))
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
        want = outcome(oracle_validate_alpha_action, b, samples, 2, stab)
        assert isinstance(want, ActionLawViolation)
        assert (want.outer, want.inner, want.sample) == (Word.parse("f"), Word.parse("k"), samples[0])
        assert outcome(validate_alpha_action, b, samples, 2, stab) == want
        with pytest.raises(CosetError):
            validate_alpha_action(space, samples[1:], 2)

    def test_each_call_fetches_its_homeo_once_and_each_twist_once(self, monkeypatch):
        b, space = built("e3")
        samples = law_samples(b, deep=False)
        calls: Counter = Counter()
        twists: Counter = Counter()
        fetches = 0
        real_all = blowup.alpha_apply_all
        real_homeo = BlowupSpace.word_homeo
        real_twist = StabilizerData.twist

        def counted_all(space, h, qs):
            calls[h.letters] += 1
            return real_all(space, h, qs)

        def counted_homeo(self, word):
            nonlocal fetches
            fetches += 1
            return real_homeo(self, word)

        def counted_twist(self, h, g):
            twists[h.letters, g.letters] += 1
            return real_twist(self, h, g)

        monkeypatch.setattr(blowup, "alpha_apply_all", counted_all)
        monkeypatch.setattr(BlowupSpace, "word_homeo", counted_homeo)
        monkeypatch.setattr(StabilizerData, "twist", counted_twist)
        cached = len(space._homeo_cache)
        assert validate_alpha_action(space, samples, ball=4) is None
        # a miss fetches its prefix once more, through the same method
        misses = len(space._homeo_cache) - cached
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
    """Count ``alpha_apply_all`` calls, and the images they yield, by word."""
    calls: Counter = Counter()
    images: Counter = Counter()
    real_all = blowup.alpha_apply_all

    def counted_all(space, h, qs):
        calls[h.letters] += 1
        for image in real_all(space, h, qs):
            images[h.letters] += 1
            yield image

    monkeypatch.setattr(blowup, "alpha_apply_all", counted_all)
    return calls, images


class TestActionLawTriePass:
    """``validate_alpha_action`` first walks the ball as a suffix trie and
    falls back to the ordered loop on any mismatch or error; its result, or
    what it raises, is always the per-point loop's."""

    def test_pass_error_before_the_loops_violation(self):
        # e3-coset-fault breaks the law first at (outer f, inner k) on the
        # midpoint.  The pass applies the identity to the images of "f f"
        # (the split 1 * "f f") before it reaches that pair, while the
        # ordered loop does so only at inner "f f", after inner k.
        b, plain = built("e3-coset-fault")
        far = apply_homeo(b.space, plain.word_homeo(Word.parse("f f")), b.marked)
        stab = twist_raising_at("1", str(plain.orbit[far]))(
            b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table
        )
        space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
        samples = [space.midpoint()]
        with pytest.raises(CosetError):
            blowup._law_holds(space, samples, 2)
        want = outcome(oracle_validate_alpha_action, b, samples, 2, stab)
        assert isinstance(want, ActionLawViolation)
        assert (want.outer, want.inner) == (Word.parse("f"), Word.parse("k"))
        assert outcome(validate_alpha_action, b, samples, 2, stab) == want

    def test_pass_violation_before_the_loops_error(self):
        # The ordered loop applies f^-1 to the midpoint at inner 1, before
        # its violation at (f, k); the pass applies f^-1 over the marked
        # point only in the subtree of f^-1, after the subtree of k.
        b = bundle("e3-coset-fault")
        stab = twist_raising_at("f^-1", "1")(
            b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table
        )
        space = BlowupSpace(b.space, b.generators, b.marked, b.depth, stab)
        samples = [space.midpoint()]
        assert blowup._law_holds(space, samples, 2) is False
        want = outcome(oracle_validate_alpha_action, b, samples, 2, stab)
        assert want == (CosetError, "no twist for 'f^-1' at '1'")
        assert outcome(validate_alpha_action, b, samples, 2, stab) == want

    @pytest.mark.parametrize("ball", [0, -1])
    @pytest.mark.parametrize("name", ["e1", "e3", "e3-coset-fault"])
    def test_balls_of_the_identity(self, name, ball):
        b = bundle(name)
        samples = law_samples(b, deep=True)
        want = outcome(oracle_validate_alpha_action, b, samples, ball)
        assert want is None
        assert outcome(validate_alpha_action, b, samples, ball) == want

    @pytest.mark.parametrize("ball", [0, -1])
    def test_identity_violation(self, ball):
        # a twist of the empty word off the identity moves the midpoint
        b = bundle("e3")

        class Moving(StabilizerData):
            def twist(self, h, g):
                return Word.parse("k") if h.is_identity() else StabilizerData.twist(self, h, g)

        stab = Moving(b.stabilizer.k_generators, b.stabilizer.phi, b.stabilizer.coset_table)
        samples = law_samples(b, deep=False)
        want = outcome(oracle_validate_alpha_action, b, samples, ball, stab)
        assert isinstance(want, ActionLawViolation)
        assert (want.outer, want.inner, want.sample) == (Word(), Word(), samples[0])
        assert outcome(validate_alpha_action, b, samples, ball, stab) == want

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

    @pytest.mark.parametrize(
        "name, loop_calls, pass_calls", [("e1", 92, 62), ("e3", 1892, 1162)]
    )
    def test_work_of_the_loop_and_the_pass(self, monkeypatch, name, loop_calls, pass_calls):
        # the default suite samples: 100 plain points and 20 interval points
        b, samples, ball = _action_law_case(bundle(name), SuiteConfig())
        space = b.blowup
        assert (len(samples), ball) == (120, 4)
        calls, images = counted_alpha(monkeypatch)
        assert blowup._first_violation(space, samples, ball) is None
        assert sum(calls.values()) == loop_calls
        assert sum(images.values()) == 120 * loop_calls
        calls.clear()
        images.clear()
        assert validate_alpha_action(space, samples, ball) is None
        assert sum(calls.values()) == pass_calls <= 1200
        assert sum(images.values()) == 120 * pass_calls


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


def oracle_stabilizer_factorization(stab, word):
    """Greedy factorization, trying each generator as a prefix at each step:
    how ``StabilizerData`` factored words before it read them off its letter
    table.  Kept here only as a reference."""
    factors = []
    remaining = tuple(word.letters)
    while remaining:
        for gen in stab.k_generators:
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


def oracle_coset_rep(stab, word):
    """The table override, else generator tails stripped one at a time:
    the old ``coset_rep`` without its cache.  Kept here only as a reference."""
    override = stab.coset_table.get(str(word))
    if override is not None:
        return override
    rep = word
    stripped = True
    while stripped and rep.letters:
        stripped = False
        for gen in stab.k_generators:
            glen = len(gen.letters)
            if glen == 0 or glen > len(rep.letters):
                continue
            tail = rep.letters[-glen:]
            if tail == gen.letters or tail == (~gen).letters:
                rep = Word(rep.letters[:-glen])
                stripped = True
                break
    return rep


def oracle_twist(stab, h, g):
    """``x_{hgK}^-1 h x_{gK}`` through the ``Word`` operators."""
    return ~oracle_coset_rep(stab, h * g) * h * oracle_coset_rep(stab, g)


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
        b = bundle("e3")
        assert b.stabilizer.validate_phi(5) is None
        bad = bundle("e3-phi-fault")
        assert bad.stabilizer.validate_phi(5) is not None
        tilted = StabilizerData(
            (Word.parse("k"),), {"k": PLMap.affine(1, 1)}
        )
        assert tilted.validate_phi(2) is not None


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

    def test_certificate_scans_the_orbit_once(self, monkeypatch):
        # The line insertions are counted once per certificate; the other
        # containment tests are the probes at plain points far up the line.
        from germkit.leafspace import Embedding

        b, space = built("e3")
        on_orbit = 0
        real_contains = Embedding.contains

        def counted(self, base, p):
            nonlocal on_orbit
            on_orbit += p in space.orbit
            return real_contains(self, base, p)

        monkeypatch.setattr(Embedding, "contains", counted)
        assert injectivity_certificate(space, root_embedding(b.space), ball=4) is None
        assert on_orbit == len(space.orbit) == 407
