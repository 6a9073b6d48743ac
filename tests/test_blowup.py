from fractions import Fraction as F

import pytest

from germkit.action import Word, reduced_words, validate_homeo, word_homeo
from germkit.blowup import (
    BlownPoint,
    BlowupError,
    BlowupSpace,
    CosetError,
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


def built(name):
    b = bundle(name)
    return b, BlowupSpace(b.space, b.generators, b.marked, b.depth)


class TestBuild:
    def test_trivial_group_single_interval(self):
        b = bundle("e1")
        space = BlowupSpace(b.space, {}, Point("r", F(0)), depth=3)
        assert set(space.orbit) == {Point("r", F(0))}

    def test_translation_orbit(self):
        b = bundle("e1")
        space = BlowupSpace(b.space, b.generators, Point("r", F(0)), depth=3)
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
            space = BlowupSpace(b.space, b.generators, marked, depth=2)
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
            name="v",
        )
        with pytest.raises(OrbitEscapeError):
            BlowupSpace(L, {"v": swap}, Point("c0", F(-1)), depth=2)


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
        image = alpha_apply(space, b.stabilizer, Word.parse("u u"), q)
        assert image == BlownPoint(Point("r", F(2)), F(1, 3))

    def test_stabilizer_twists_height(self):
        b, space = built("e3")
        mid = space.midpoint()
        image = alpha_apply(space, b.stabilizer, Word.parse("k"), mid)
        assert image == BlownPoint(b.marked, F(3, 4))

    def test_plain_point_moves_by_underlying_action(self):
        b, space = built("e3")
        q = BlownPoint(Point("r", F(2)))
        image = alpha_apply(space, b.stabilizer, Word.parse("f"), q)
        assert image == BlownPoint(Point("r", F(4)))

    def test_interval_to_interval_monotone(self):
        b, space = built("e3")
        heights = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        for text in ("f", "k", "f k", "k^-1 f"):
            w = Word.parse(text)
            images = [
                alpha_apply(space, b.stabilizer, w, BlownPoint(b.marked, t)) for t in heights
            ]
            assert len({img.point for img in images}) == 1
            out = [img.height for img in images]
            assert out == sorted(out)
            assert out[0] == 0 and out[-1] == 1

    def test_orbit_escape_on_deep_word(self):
        b, space = built("e1")
        deep = Word.parse("u^9")
        with pytest.raises(OrbitEscapeError):
            alpha_apply(space, b.stabilizer, deep, space.midpoint())

    def test_plain_point_hitting_interval_escapes(self):
        b, space = built("e1")
        q = BlownPoint(Point("r", F(-9)))
        with pytest.raises(OrbitEscapeError):
            alpha_apply(space, b.stabilizer, Word.parse("u"), q)


class TestActionLaw:
    def test_identity_word_fixes_samples(self):
        b, space = built("e3")
        for q in (space.midpoint(), BlownPoint(Point("r", F(5)))):
            assert alpha_apply(space, b.stabilizer, Word(), q) == q

    def test_exhaustive_small_ball(self):
        b, space = built("e1")
        samples = [
            space.midpoint(),
            BlownPoint(Point("r", F(1)), F(2, 3)),
            BlownPoint(Point("r", F(1, 2))),
        ]
        assert validate_alpha_action(space, b.stabilizer, samples, ball=4) is None

    def test_corrupted_coset_table_is_caught(self):
        b, space = built("e3-coset-fault")
        samples = [space.midpoint(), BlownPoint(b.marked, F(1, 4))]
        violation = validate_alpha_action(space, b.stabilizer, samples, ball=2)
        assert violation is not None
        # replay the reported case
        lhs = alpha_apply(
            space, b.stabilizer, violation.outer * violation.inner, violation.sample
        )
        rhs = alpha_apply(
            space,
            b.stabilizer,
            violation.outer,
            alpha_apply(space, b.stabilizer, violation.inner, violation.sample),
        )
        assert lhs != rhs


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
        samples = [space.midpoint(), BlownPoint(b.marked, F(1, 5))]
        assert validate_alpha_action(space, alt, samples, ball=3) is None
        w = Word.parse("f")
        twist_default = b.stabilizer.twist(w, Word())
        twist_alt = alt.twist(w, Word())
        assert alt.in_stabilizer(twist_alt)
        same_phi = b.stabilizer.phi_word(twist_default) == alt.phi_word(twist_alt)
        lhs = alpha_apply(space, b.stabilizer, w, space.midpoint())
        rhs = alpha_apply(space, alt, w, space.midpoint())
        assert (lhs == rhs) == same_phi


class TestStabilizerCheck:
    def test_free_example_has_trivial_ball_stabilizer(self):
        b, space = built("e3")
        assert stabilizer_check(space, b.stabilizer, ball=5) is None

    def test_phi_fault_reports_the_generator(self):
        b, space = built("e3-phi-fault")
        assert stabilizer_check(space, b.stabilizer, ball=5) == Word.parse("k")

    def test_misdeclared_stabilizer_rejected(self):
        b, space = built("e3")
        wrong = StabilizerData((Word.parse("f"),), {"f": b.stabilizer.phi["k"]})
        with pytest.raises(BlowupError):
            stabilizer_check(space, wrong, ball=2)

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
        found = positive_ray_orbit_search(space, b.stabilizer, e, F(5), ball=8)
        assert found == Word.parse("u^6")

    def test_already_over_the_ray(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        assert positive_ray_orbit_search(space, b.stabilizer, e, F(-1), ball=8) == Word()

    def test_exhausted_ball(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        assert positive_ray_orbit_search(space, b.stabilizer, e, F(20), ball=4) is None

    def test_orbit_off_the_line_exhausts(self):
        b, space = built("e3")
        e = root_embedding(b.space)
        assert positive_ray_orbit_search(space, b.stabilizer, e, F(0), ball=5) is None

    def test_ball_beyond_depth_rejected(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        with pytest.raises(BlowupError):
            positive_ray_orbit_search(space, b.stabilizer, e, F(0), ball=99)


class TestBlownGerm:
    def test_translation_through_inserted_intervals(self):
        b, space = built("e1")
        e = root_embedding(b.space)
        assert blown_induced_germ(space, b.stabilizer, Word.parse("u"), e) == Germ(1, 1)
        assert blown_induced_germ(space, b.stabilizer, Word.parse("u^-1 u"), e) == Germ.identity()

    def test_off_line_orbit_keeps_base_germ(self):
        b, space = built("e3")
        e = root_embedding(b.space)
        assert blown_induced_germ(space, b.stabilizer, Word.parse("f"), e) == Germ(2, 0)
        assert blown_induced_germ(space, b.stabilizer, Word.parse("k"), e) == Germ(3, 1)

    def test_dilation_germ_is_conjugated_by_insertions(self):
        # A dilation through on-line insertions picks up the inserted length.
        from germkit.action import Homeo
        from germkit.leafspace import LeafSpace, Side

        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
        double = Homeo({"r": "r"}, {"r": PLMap.affine(2, 0)}, name="d")
        space = BlowupSpace(L, {"d": double}, Point("r", F(1)), depth=2)
        stab = StabilizerData((), {})
        e = root_embedding(L)
        count = len(space.orbit)  # insertions on the line: 1/4, 1/2, 1, 2, 4
        germ = blown_induced_germ(space, stab, Word.parse("d"), e)
        assert germ == Germ(2, count * (1 - 2))

    def test_certificates(self):
        for name in ("e1", "e3"):
            b, space = built(name)
            e = root_embedding(b.space)
            assert injectivity_certificate(space, b.stabilizer, e, ball=4) is None

    def test_certificate_catches_trivial_germ(self):
        # the branch swap has trivial germs, so the certificate must name a word
        bb = bundle("e2")
        space = BlowupSpace(bb.space, bb.generators, Point("b", F(-1)), depth=2)
        stab = StabilizerData((), {})
        e = root_embedding(bb.space)
        failing = injectivity_certificate(space, stab, e, ball=2)
        assert failing is not None and len(failing) >= 1
