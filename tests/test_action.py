from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from germkit import action, suites
from germkit.action import (
    ActionError,
    FULL_LINE,
    GermMismatchError,
    Homeo,
    UnknownGeneratorError,
    Word,
    _ray_events,
    apply_homeo,
    compose_homeo,
    identity_homeo,
    induced_germ,
    invert_homeo,
    letter_homeo,
    line_image,
    moved_point_witness,
    overlap_ray,
    reduced_words,
    validate_homeo,
    word_germ,
    word_homeo,
)
from germkit.examples import bundle
from germkit.fuzz import CaseGen
from germkit.germ import Germ
from germkit.leafspace import Embedding, LeafSpace, LeafSpaceError, Point, Side, root_embedding
from germkit.plmap import PLMap
from reference import (
    oracle_induced_germ, oracle_line_image, oracle_moved_point_witness, oracle_overlap_ray,
    oracle_ray_events, oracle_validate_homeo, oracle_word_germ, oracle_word_homeo, oracle_words,
)
from support import field_dict, record_of


def line():
    return LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})


def two_siblings():
    return LeafSpace.build(
        Side.NEGATIVE,
        {"r": (None, None), "b1": ("r", F(0)), "b2": ("r", F(0))},
    )


def sibling_swap(L):
    ident = PLMap.identity()
    return Homeo(
        {"r": "r", "b1": "b2", "b2": "b1"},
        {"r": ident, "b1": ident, "b2": ident},
    )


def translation(L, amount=1):
    shift = PLMap.affine(1, amount)
    return Homeo({b: b for b in L.branches}, {b: shift for b in L.branches})


class TestValidate:
    def test_identity_ok(self):
        for name in ("e1", "e2", "e3"):
            b = bundle(name)
            assert validate_homeo(b.space, identity_homeo(b.space)) is None

    def test_sibling_swap_ok(self):
        L = two_siblings()
        assert validate_homeo(L, sibling_swap(L)) is None

    def test_negative_slope_reports_orientation(self):
        L = line()
        bad_pl = record_of(breakpoints=(), values=(), left_slope=F(-1),
                           right_slope=F(-1), tail_offset=F(0))
        h = Homeo({"r": "r"}, {"r": bad_pl})
        report = validate_homeo(L, h)
        assert report is not None and "orientation" in report

    def test_incompatible_departure_image(self):
        L = two_siblings()
        # translating everything by 1 moves the branch point: not a homeo here
        report = validate_homeo(L, translation(L))
        assert report is not None and "departure" in report

    def test_child_parent_disagreement(self):
        L = two_siblings()
        ident = PLMap.identity()
        squash = PLMap.make([(0, 0)], 1, F(1, 2))
        h = Homeo({"r": "r", "b1": "b1", "b2": "b2"},
                  {"r": ident, "b1": squash, "b2": ident})
        report = validate_homeo(L, h)
        assert report is not None and "disagree" in report

    def test_not_a_bijection(self):
        L = two_siblings()
        ident = PLMap.identity()
        h = Homeo({"r": "r", "b1": "b1", "b2": "b1"},
                  {"r": ident, "b1": ident, "b2": ident})
        report = validate_homeo(L, h)
        assert report is not None and "bijection" in report

    def test_undeclared_branch(self):
        # e3's f maps branches e1's single line lacks
        report = validate_homeo(bundle("e1").space, bundle("e3").generators["f"])
        assert report is not None and "'b1' is not declared" in report
        ident = PLMap.identity()
        with pytest.raises(ActionError, match="branch_map does not cover branch 'x'"):
            Homeo({"r": "r"}, {"r": ident, "x": ident})
        extra_branch = Homeo({"r": "r", "x": "x"}, {"r": ident, "x": ident})
        report = validate_homeo(line(), extra_branch)
        assert report is not None and "'x' is not declared" in report

    @pytest.mark.parametrize(
        "branch_map, charts, message",
        [
            ({"r": "r"}, "rx", "branch_map does not cover branch 'x'"),
            ({"r": "r", "x": "x"}, "r", "branch_pl does not cover branch 'x'"),
            ({"a": "a", "c": "c"}, "bc", "branch_pl does not cover branch 'a'"),
            ({"b": "b", "c": "c"}, "ac", "branch_map does not cover branch 'a'"),
            ({"b": "b", "d": "d"}, "bc", "branch_map does not cover branch 'c'"),
            ({}, "r", "branch_map does not cover branch 'r'"),
            ({"r": "r"}, "", "branch_pl does not cover branch 'r'"),
        ],
    )
    def test_constructor_rejects_key_sets_that_differ(self, branch_map, charts, message):
        # the first branch one map lacks, in sorted order, is named
        ident = PLMap.identity()
        with pytest.raises(ActionError, match=f"^{message}$"):
            Homeo(branch_map, {b: ident for b in charts})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Word((("f", 2),)), "letter exponent must be +-1, got 2"),
        (
            lambda: compose_homeo(
                Homeo({"a": "a"}, {"a": PLMap.identity()}),
                Homeo({"b": "c"}, {"b": PLMap.identity()}),
            ),
            "composition undefined on branch 'b'",
        ),
        # past the interpreter's 4,300-digit integer string limit
        (lambda: Word.parse("f^" + "9" * 5000), "bad word letter: too many digits (5002 characters)"),
        # refused before the power is expanded
        (
            lambda: Word.parse("f^1000000000"),
            "bad word letter 'f^1000000000': word longer than 100000 letters",
        ),
        (
            lambda: Word.parse("k " + "f^50000 " * 2),
            "bad word letter 'f^50000': word longer than 100000 letters",
        ),
    ],
    ids=[
        "word-exponent", "partial-composition", "exponent-past-the-digit-limit",
        "power-past-the-letter-limit", "letters-past-the-letter-limit",
    ],
)
def test_input_errors(call, message):
    with pytest.raises(ActionError) as raised:
        call()
    assert type(raised.value) is ActionError and str(raised.value) == message


def perturbed(space, h):
    """``h`` and copies of it with one flaw each: one chart map changed above
    or below a point at, above or below its departure, shifted, or given an
    unchecked record with an extra collinear breakpoint or with a wrong
    tail; every chart map shifted; two branch images swapped or made equal;
    or one branch left out of both maps."""
    yield h
    shift = PLMap.affine(1, 1)
    yield Homeo(h.branch_map, {b: shift * pl for b, pl in h.branch_pl.items()})
    for b in sorted(space.branches):
        pl = h.branch_pl[b]
        dep = space.departure(b)
        dep = F(0) if dep is None else dep
        charts = [shift * pl]
        for t in (dep - 1, dep, dep + F(1, 2)):
            charts += [pl * PLMap.make([(t, t)], 1, 2), pl * PLMap.make([(t, t)], 2, 1)]
        x = (pl.breakpoints[-1] if pl.breakpoints else F(0)) + 1
        charts.append(record_of(**field_dict(pl, breakpoints=(*pl.breakpoints, x),
                                             values=(*pl.values, pl(x)))))
        charts.append(record_of(**field_dict(pl, tail_offset=pl.tail_offset + 1)))
        for chart in charts:
            yield Homeo(h.branch_map, {**h.branch_pl, b: chart})
        yield Homeo(
            {k: v for k, v in h.branch_map.items() if k != b},
            {k: pl for k, pl in h.branch_pl.items() if k != b},
        )
    names = sorted(space.branches)
    for a, c in zip(names, names[1:]):
        swapped = dict(h.branch_map)
        swapped[a], swapped[c] = swapped[c], swapped[a]
        yield Homeo(swapped, h.branch_pl)
        yield Homeo({**h.branch_map, a: h.branch_map[c]}, h.branch_pl)


class TestValidateAgainstFractionBody:
    def targets(self):
        """e1-e3 with their words to length 2, and seeded random spaces of both
        sides with random homeos and their inverses."""
        for name in ("e1", "e2", "e3"):
            b = bundle(name)
            names = sorted(b.generators)
            for w in reduced_words(names, 2):
                yield b.space, word_homeo(b.space, b.generators, w)
        gen = CaseGen(41)
        for _ in range(12):
            space = gen.leafspace(max_branches=4)
            h = gen.homeo(space)
            yield space, h
            yield space, invert_homeo(h)

    def test_messages_match(self):
        seen = set()
        for space, h in self.targets():
            for candidate in perturbed(space, h):
                got = validate_homeo(space, candidate)
                assert got == oracle_validate_homeo(space, candidate)
                if got is not None:
                    got = "bijection" if "bijection" in got else got.split(" ")[0]
                seen.add((space.side, got))
        kinds = {None, "orientation:", "compatibility:", "departure:", "bijection", "branch_map"}
        for side in Side:
            assert {kind for s, kind in seen if s is side} == kinds

    def test_invalid_chart_never_reaches_agree_on_ray(self, monkeypatch):
        calls = []
        original = action.agree_on_ray
        monkeypatch.setattr(action, "agree_on_ray", lambda *a: calls.append(a) or original(*a))
        b = bundle("e3")
        f = b.generators["f"]
        assert validate_homeo(b.space, f) is None and len(calls) == 2
        b2 = f.branch_pl["b2"]
        bad = record_of(**field_dict(b2, tail_offset=b2.tail_offset + 1))
        report = validate_homeo(b.space, Homeo(f.branch_map, {**f.branch_pl, "b2": bad}))
        assert report.startswith("orientation: branch 'b2'")
        assert len(calls) == 2


class TestApply:
    def test_translation_on_line(self):
        L = line()
        assert apply_homeo(L, translation(L), Point("r", F(0))) == Point("r", F(1))

    def test_sibling_swap_moves_lower_ray(self):
        L = two_siblings()
        h = sibling_swap(L)
        assert apply_homeo(L, h, Point("b1", F(-2))) == Point("b2", F(-2))

    def test_image_canonicalizes_into_parent(self):
        b = bundle("e2")
        h = b.generators["s"]
        # the root's upper ray is sent through branch b and glued back
        assert apply_homeo(b.space, h, Point("r", F(5))) == Point("r", F(5))
        assert apply_homeo(b.space, h, Point("r", F(-5))) == Point("b", F(-5))

    def test_unknown_branch(self):
        L = line()
        h = Homeo({"r": "r"}, {"r": PLMap.identity()})
        with pytest.raises(ActionError):
            apply_homeo(L, h, Point("zz", F(0)))

    def test_composition_soundness(self):
        b = bundle("e3")
        f, k = b.generators["f"], b.generators["k"]
        fk = compose_homeo(f, k)
        samples = [Point("b1", F(-3, 2)), Point("b2", F(-1)), Point("r", F(2))]
        for p in samples:
            p = b.space.canonical(p)
            assert apply_homeo(b.space, fk, p) == apply_homeo(
                b.space, f, apply_homeo(b.space, k, p)
            )

    def test_inverse_soundness(self):
        b = bundle("e3")
        k = b.generators["k"]
        kinv = invert_homeo(k)
        for p in (Point("b1", F(-7, 3)), Point("r", F(1, 2))):
            p = b.space.canonical(p)
            assert apply_homeo(b.space, kinv, apply_homeo(b.space, k, p)) == p

    def test_inverse_is_built_once_and_points_back(self):
        b = bundle("e3")
        k = b.generators["k"]
        kinv = invert_homeo(k)
        assert invert_homeo(k) is kinv
        assert invert_homeo(kinv) is k
        assert kinv == invert_homeo(Homeo(k.branch_map, k.branch_pl))
        assert "_inverse" not in repr(k)

    def test_inverse_letters_share_the_generator_inverse(self):
        b = bundle("e3")
        f = b.generators["f"]
        word_homeo(b.space, b.generators, Word.parse("f^-1 k f^-1"))
        finv = f._inverse
        assert finv is not None
        word_germ(b.space, b.generators, Word.parse("f^-1 k^-1"), root_embedding(b.space))
        assert f._inverse is finv and invert_homeo(f) is finv


class TestOverlapRay:
    def test_swap_into_child(self):
        b = bundle("e2")
        e = root_embedding(b.space)
        assert overlap_ray(b.space, b.generators["s"], e) == F(0)

    def test_translation_is_full_line(self):
        L = line()
        e = root_embedding(L)
        assert overlap_ray(L, translation(L), e) is FULL_LINE

    def test_grandchild_threshold_is_max_departure(self):
        # Probe the scan on a partially specified map sending the root chart
        # into a grandchild whose chain departs at 0 and 2.
        L = LeafSpace.build(
            Side.NEGATIVE,
            {"r": (None, None), "p": ("r", F(2)), "g": ("p", F(0))},
        )
        e = root_embedding(L)
        probe = Homeo({"r": "g"}, {"r": PLMap.identity()})
        assert overlap_ray(L, probe, e) == F(2)

    def test_points_above_return_and_witness_below(self):
        b = bundle("e2")
        e = root_embedding(b.space)
        h = b.generators["s"]
        t = overlap_ray(b.space, h, e)
        for d in (F(1, 3), 1, 10):
            image = apply_homeo(b.space, h, e.point_at(b.space, t + d))
            assert e.contains(b.space, image)
        at_threshold = apply_homeo(b.space, h, e.point_at(b.space, t))
        assert not e.contains(b.space, at_threshold)


class TestInducedGerm:
    def test_translation(self):
        L = line()
        e = root_embedding(L)
        assert induced_germ(L, translation(L), e) == Germ(1, 1)

    def test_branch_data_is_forgotten(self):
        b = bundle("e2")
        e = root_embedding(b.space)
        assert induced_germ(b.space, b.generators["s"], e) == Germ.identity()

    def test_root_tail_wins(self):
        b = bundle("e3")
        e = root_embedding(b.space)
        assert induced_germ(b.space, b.generators["f"], e) == Germ(2, 0)
        assert induced_germ(b.space, b.generators["k"], e) == Germ(3, 1)

    def test_threshold_independence(self):
        for name in ("e1", "e2", "e3"):
            b = bundle(name)
            e = root_embedding(b.space)
            for h in b.generators.values():
                t = overlap_ray(b.space, h, e)
                base = F(0) if t is None else t
                assert (
                    induced_germ(b.space, h, e, threshold=base)
                    == induced_germ(b.space, h, e, threshold=base + 10)
                    == induced_germ(b.space, h, e)
                )

    def test_threshold_below_overlap_rejected(self):
        b = bundle("e2")
        e = root_embedding(b.space)
        with pytest.raises(ActionError):
            induced_germ(b.space, b.generators["s"], e, threshold=F(-1))


class TestWords:
    def test_parse_and_str(self):
        w = Word.parse("f g^-1 f")
        assert str(w) == "f g^-1 f"
        assert len(w) == 3

    def test_power_sugar(self):
        assert Word.parse("f^3") == Word.parse("f f f")
        assert Word.parse("f^-2") == Word.parse("f^-1 f^-1")

    @pytest.mark.parametrize("token", ["f^\u0663", "f^-\u0663", "f^\uff13"])
    def test_power_takes_ascii_digits_only(self, token):
        # Arabic-Indic and fullwidth threes are digits to int() but not here
        with pytest.raises(ActionError, match="bad word letter"):
            Word.parse(token)

    def test_letter_limit_counts_letters_before_reduction(self):
        assert len(Word.parse("f^99999 k")) == 100_000
        with pytest.raises(ActionError, match="word longer than 100000 letters"):
            Word.parse("f^99999 f^-1 f")  # reduces to 99,999 letters, but reads 100,001

    def test_free_reduction(self):
        assert Word.parse("g g^-1").is_identity()
        assert Word.parse("f g g^-1 f").letters == (("f", 1), ("f", 1))

    def test_inverse(self):
        w = Word.parse("f g^-1")
        assert (~w).letters == (("g", 1), ("f", -1))
        assert (w * ~w).is_identity()

    def test_reduced_words_count(self):
        words = reduced_words(["f", "k"], 3)
        assert len(words) == 1 + 4 + 12 + 36
        assert len(set(w.letters for w in words)) == len(words)


@st.composite
def word_pairs(draw):
    """Two reduced words over two or three names, drawn through the reducing
    constructor; the second starts with the inverse of a random tail of the
    first, so their product cancels fully, partly or not at all."""
    names = draw(st.sampled_from((("f", "g"), ("f", "g", "h"))))
    letter = st.tuples(st.sampled_from(names), st.sampled_from((1, -1)))
    a = Word(tuple(draw(st.lists(letter, max_size=8))))
    tail = a.letters[len(a) - draw(st.integers(0, len(a))):]
    undo = tuple((name, -exp) for name, exp in reversed(tail))
    return a, Word(undo + tuple(draw(st.lists(letter, max_size=8))))


class TestWordAlgebra:
    """Products, inverses and prefix slices are built by the trusted
    ``Word._reduced``; each must be what the reducing constructor gives."""

    @given(word_pairs())
    @example((Word.parse("f g^-1 h"), Word.parse("h^-1 g f^-1")))  # full cancellation
    @example((Word.parse("f g h"), Word.parse("h^-1 g^-1 f")))  # partial cancellation
    @example((Word.parse("f g"), Word.parse("g f^-1")))  # no cancellation
    @example((Word(), Word()))
    def test_operators_match_the_reducing_constructor(self, pair):
        a, b = pair
        assert (a * b).letters == Word(a.letters + b.letters).letters
        assert (b * a).letters == Word(b.letters + a.letters).letters
        assert (~a).letters == Word(tuple((name, -exp) for name, exp in reversed(a.letters))).letters
        assert (a * ~a).letters == (~a * a).letters == ()
        for w in (a, b):
            assert (w * Word()).letters == (Word() * w).letters == w.letters
        for i in range(len(a) + 1):
            prefix, reduced = Word._reduced(a.letters[:i]), Word(a.letters[:i])
            assert prefix == reduced and hash(prefix) == hash(reduced)

    def test_ball_words_and_coset_reps_are_reduced(self):
        for name in ("e1", "e3", "e3-coset-fault"):
            b = bundle(name)
            for w in reduced_words(sorted(b.generators), 4):
                assert Word(w.letters).letters == w.letters
                rep = b.stabilizer.coset_rep(w)
                assert Word(rep.letters).letters == rep.letters


class TestWordGerm:
    def test_shift_then_double(self):
        L = line()
        gens = {
            "t": translation(L),
            "d": Homeo({"r": "r"}, {"r": PLMap.affine(2, 0)}),
        }
        e = root_embedding(L)
        # t after d: x -> 2x + 1; letterwise (1,1)*(2,0) agrees
        assert word_germ(L, gens, Word.parse("t d"), e) == Germ(2, 1)
        assert Germ(1, 1) * Germ(2, 0) == Germ(2, 1)

    def test_empty_word(self):
        b = bundle("e3")
        e = root_embedding(b.space)
        assert word_germ(b.space, b.generators, Word(), e) == Germ.identity()

    def test_cancelling_word(self):
        b = bundle("e3")
        e = root_embedding(b.space)
        assert word_germ(b.space, b.generators, Word.parse("k k^-1"), e) == Germ.identity()

    def test_undeclared_generator(self):
        b = bundle("e1")
        e = root_embedding(b.space)
        with pytest.raises(UnknownGeneratorError):
            word_germ(b.space, b.generators, Word.parse("zz"), e)

    def test_inverse_word_inverts_germ(self):
        b = bundle("e3")
        e = root_embedding(b.space)
        for text in ("f", "k", "f k", "k f^-1 k"):
            w = Word.parse(text)
            assert word_germ(b.space, b.generators, ~w, e) == ~word_germ(
                b.space, b.generators, w, e
            )


class TestMovedWitness:
    def test_translation_witness(self):
        L = line()
        e = root_embedding(L)
        m = moved_point_witness(L, translation(L), e, F(100))
        assert m == 101

    def test_identity_has_no_witness(self):
        L = line()
        e = root_embedding(L)
        assert moved_point_witness(L, identity_homeo(L), e, F(0)) is None

    def test_support_below_zero(self):
        L = line()
        e = root_embedding(L)
        # moves only (-oo, 0): identity at and above 0
        pl = PLMap.make([(-1, -2), (0, 0)], 2, 1)
        h = Homeo({"r": "r"}, {"r": pl})
        assert moved_point_witness(L, h, e, F(0)) is None
        assert induced_germ(L, h, e) == Germ.identity()
        m = moved_point_witness(L, h, e, F(-10))
        assert m is not None and m <= 0
        assert apply_homeo(L, h, e.point_at(L, m)) != e.point_at(L, m)

    def test_branch_swap_fixes_upper_ray(self):
        b = bundle("e2")
        e = root_embedding(b.space)
        s = b.generators["s"]
        assert moved_point_witness(b.space, s, e, F(0)) is None
        m = moved_point_witness(b.space, s, e, F(-10))
        assert m is not None and m <= 0

    def test_witness_implies_nontrivial_germ(self):
        b = bundle("e3")
        e = root_embedding(b.space)
        for name, h in b.generators.items():
            cuts = (F(0), F(10**3), F(10**6))
            found = [moved_point_witness(b.space, h, e, n) for n in cuts]
            assert all(m is not None for m in found)
            assert not induced_germ(b.space, h, e).is_identity()


class TestSwappedLines:
    """Random line swaps: finite overlap thresholds beyond the one bundle."""

    def test_overlap_is_the_departure(self):
        from germkit.fuzz import CaseGen

        gen = CaseGen(21)
        for _ in range(25):
            space, swap, d = gen.swap_pair()
            assert validate_homeo(space, swap) is None
            e = root_embedding(space)
            assert overlap_ray(space, swap, e) == d
            assert induced_germ(space, swap, e) == Germ.identity()
            assert moved_point_witness(space, swap, e, d) is None
            m = moved_point_witness(space, swap, e, d - 10)
            assert m is not None and m <= d

    def test_composite_with_vertical_map(self):
        # swap then stretch: finite overlap with a nontrivial germ
        from germkit.fuzz import CaseGen

        gen = CaseGen(22)
        for _ in range(15):
            space, swap, d = gen.swap_pair()
            vertical = gen.homeo(space)
            composite = compose_homeo(vertical, swap)
            assert validate_homeo(space, composite) is None
            e = root_embedding(space)
            expected = induced_germ(space, vertical, e)
            assert induced_germ(space, composite, e) == expected
            t = overlap_ray(space, composite, e)
            base = F(0) if t is None else t
            assert induced_germ(space, composite, e, threshold=base + 10) == expected


class TestLazyExtension:
    """Actions describing a finite window of a larger space."""

    @staticmethod
    def windowed():
        # the file declares only c0; the generator swaps c0 with an
        # undeclared sibling c1
        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "c0": ("r", F(0))})
        ident = PLMap.identity()
        swap = Homeo(
            {"r": "r", "c0": "c1", "c1": "c0"},
            {"r": ident, "c0": ident, "c1": ident},
        )
        return L, {"v": swap}

    def test_default_rejects(self):
        from germkit.action import extend_space_for_action

        L, gens = self.windowed()
        assert extend_space_for_action(L, gens, 0) is L
        assert validate_homeo(L, gens["v"]) is not None

    def test_extension_closes_the_action(self):
        from germkit.action import extend_space_for_action

        L, gens = self.windowed()
        bigger = extend_space_for_action(L, gens, 4)
        assert set(bigger.branches) == {"r", "c0", "c1"}
        assert bigger.parent("c1") == "r"
        assert bigger.departure("c1") == F(0)
        assert validate_homeo(bigger, gens["v"]) is None

    def test_bound_is_enforced(self):
        from germkit.action import extend_space_for_action

        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "c0": ("r", F(0))})
        shift = PLMap.affine(1, 1)
        # a genuinely infinite window: c0 -> c1 -> c2 -> ... never closes up
        comb = Homeo(
            {"r": "r", "c0": "c1", "c1": "c2", "c2": "c3"},
            {"r": shift, "c0": shift, "c1": shift, "c2": shift},
        )
        with pytest.raises(ActionError, match="new branches"):
            extend_space_for_action(L, {"u": comb}, 2)

    def test_root_image_cannot_be_created(self):
        from germkit.action import extend_space_for_action

        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
        h = Homeo({"r": "elsewhere"}, {"r": PLMap.identity()})
        with pytest.raises(ActionError, match="root"):
            extend_space_for_action(L, {"h": h}, 5)


def test_word_homeo_matches_letter_application():
    b = bundle("e3")
    w = Word.parse("f k^-1 f f")
    h = word_homeo(b.space, b.generators, w)
    p = b.space.canonical(Point("b1", F(-1)))
    step = p
    for name, exp in reversed(w.letters):
        g = b.generators[name]
        if exp == -1:
            g = invert_homeo(g)
        step = apply_homeo(b.space, g, step)
    assert apply_homeo(b.space, h, p) == step


# ---------------------------------------------------------------------------
# The default induced germ against the scanning one


def outcome(germ_of, space, h, e, threshold):
    try:
        return germ_of(space, h, e, threshold)
    except ActionError as exc:
        return ("raised", str(exc))


def assert_matches_oracle(space, h, e):
    """Default, at the overlap ray, ten above it and one below it."""
    t = overlap_ray(space, h, e)
    base = F(0) if t is None else t
    thresholds = [None, base, base + 10] + ([] if t is None else [t - 1])
    for threshold in thresholds:
        got = outcome(induced_germ, space, h, e, threshold)
        assert got == outcome(oracle_induced_germ, space, h, e, threshold), (threshold, got)
        assert isinstance(got, tuple) == (threshold == base - 1 and t is not None)


def negative_events_line():
    # slope 2 below -3, a translation by 1 above: the line maps into itself,
    # and the only ray event lies below 0
    L = line()
    return L, Homeo({"r": "r"}, {"r": PLMap.make([(-3, -2)], 2, 1)})


class TestInducedGermOracle:
    def test_random_homeos_on_both_sides(self):
        gen = CaseGen(31)
        sides = set()
        for _ in range(20):
            space = gen.leafspace(4)
            sides.add(space.side)
            h = gen.homeo(space)
            for g in (h, invert_homeo(h)):
                for branch in sorted(space.branches):
                    assert_matches_oracle(space, g, Embedding(branch))
        assert sides == {Side.NEGATIVE, Side.POSITIVE}

    def test_swaps_and_composites(self):
        gen = CaseGen(32)
        for _ in range(10):
            space, swap, d = gen.swap_pair()
            stretch = compose_homeo(gen.homeo(space), swap)
            for g in (swap, stretch, invert_homeo(stretch)):
                for branch in sorted(space.branches):
                    assert_matches_oracle(space, g, Embedding(branch))

    def test_events_all_negative(self):
        L, h = negative_events_line()
        e = root_embedding(L)
        assert _ray_events(L, h, e) == ((-3, 1),)
        assert overlap_ray(L, h, e) is FULL_LINE
        assert induced_germ(L, h, e) == Germ(1, 1)
        assert_matches_oracle(L, h, e)

    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_bundle_words(self, name):
        b = bundle(name)
        for w in reduced_words(sorted(b.generators), 3):
            h = word_homeo(b.space, b.generators, w)
            for branch in sorted(b.space.branches):
                assert_matches_oracle(b.space, h, Embedding(branch))


def theorem_homeos():
    """``(space, homeo)`` pairs: every ball-4 word of e1-e3, ``CaseGen``
    homeos on e3 and their inverses, swaps with their composites, and
    homeos on random ``CaseGen`` spaces of both sides."""
    for name in ("e1", "e2", "e3"):
        b = bundle(name)
        for w in reduced_words(sorted(b.generators), 4):
            yield b.space, word_homeo(b.space, b.generators, w)
    gen, e3 = CaseGen(34), bundle("e3").space
    for _ in range(20):
        h = gen.homeo(e3)
        yield e3, h
        yield e3, invert_homeo(h)
    for _ in range(20):
        space, swap, _ = gen.swap_pair()
        yield space, swap
        yield space, compose_homeo(gen.homeo(space), swap)
    for _ in range(300):
        space = gen.leafspace()
        h = gen.homeo(space)
        yield space, h
        yield space, invert_homeo(h)


class TestRootChartGerm:
    """The default germ is ``Germ.of`` of the root chart: on every
    embedding it equals the germ two probes read above the overlap ray, and
    the reference's."""

    def test_default_germ_is_the_probe_germ_on_every_embedding(self):
        count, sides = 0, set()
        for space, h in theorem_homeos():
            assert validate_homeo(space, h) is None
            sides.add(space.side)
            root_germ = Germ.of(h.branch_pl[space.root])
            for branch in sorted(space.branches):
                e = Embedding(branch)
                t = overlap_ray(space, h, e)
                probed = induced_germ(space, h, e, threshold=F(0) if t is FULL_LINE else t)
                assert induced_germ(space, h, e) == root_germ == probed, (branch, h)
                assert root_germ == oracle_induced_germ(space, h, e)
                count += 1
        assert count > 2500 and sides == {Side.NEGATIVE, Side.POSITIVE}

    def test_every_chart_map_has_the_root_tail(self):
        # the lemma behind the homomorphism: compatibility carries the
        # root chart's tail to every chart map of a valid homeo
        for space, h in theorem_homeos():
            root_germ = Germ.of(h.branch_pl[space.root])
            assert all(Germ.of(pl) == root_germ for pl in h.branch_pl.values())

    def test_malformed_input_raises_on_every_call(self):
        L = two_siblings()
        ident = PLMap.identity()
        # a root missing from one map is rejected when the homeo is built
        with pytest.raises(ActionError, match="branch_pl does not cover branch 'r'"):
            Homeo({b: b for b in L.branches}, {"b1": ident, "b2": ident})
        with pytest.raises(ActionError, match="branch_map does not cover branch 'r'"):
            Homeo({"b1": "b1", "b2": "b2"}, {b: ident for b in L.branches})
        no_root = Homeo({"b1": "b1", "b2": "b2"}, {"b1": ident, "b2": ident})
        for branch in sorted(L.branches):
            for _ in range(2):
                with pytest.raises(ActionError, match="homeomorphism undefined on branch 'r'"):
                    induced_germ(L, no_root, Embedding(branch))
        undeclared = Homeo({"r": "zz", "b1": "b1", "b2": "b2"}, {b: ident for b in L.branches})
        cases = [(identity_homeo(L), "zz")] + [(undeclared, branch) for branch in L.branches]
        for h, branch in cases:
            for _ in range(2):
                with pytest.raises(LeafSpaceError, match="unknown branch 'zz'"):
                    induced_germ(L, h, Embedding(branch))
        assert kept(no_root) == kept(undeclared) == ({}, {})


def assert_table_matches_oracle(space, h, e):
    """The event table is the reference's sorted list, as distinct reduced
    pairs with positive denominators; returns the table.  It is built on a
    fresh copy of ``h``, so ``h`` keeps nothing."""
    events = _ray_events(space, fresh(h), e)
    assert [F(n, d) for n, d in events] == oracle_ray_events(space, h, e)
    assert all(d > 0 and gcd(n, d) == 1 for n, d in events)
    return events


class TestRayEventTable:
    def test_random_homeos_and_shifts_on_both_sides(self):
        # CaseGen homeos fix every departure; a shift moves them, so the
        # table also holds preimages that are no departure
        gen = CaseGen(33)
        sides = set()
        for _ in range(20):
            space = gen.leafspace(4)
            sides.add(space.side)
            h = gen.homeo(space)
            for g in (h, invert_homeo(h), translation(space, -1), translation(space, F(1, 3))):
                for branch in sorted(space.branches):
                    assert_table_matches_oracle(space, g, Embedding(branch))
        assert sides == {Side.NEGATIVE, Side.POSITIVE}

    def test_swaps_composites_and_bundle_words(self):
        gen = CaseGen(35)
        cases = []
        for _ in range(10):
            space, swap, _ = gen.swap_pair()
            composite = compose_homeo(gen.homeo(space), swap)
            cases += [(space, swap), (space, composite), (space, invert_homeo(composite))]
        for name in ("e1", "e2", "e3"):
            b = bundle(name)
            cases += [(b.space, word_homeo(b.space, b.generators, w))
                      for w in reduced_words(sorted(b.generators), 2)]
        for space, h in cases:
            for branch in sorted(space.branches):
                assert_table_matches_oracle(space, h, Embedding(branch))

    def test_shifts_all_negative_and_no_events(self):
        b, L, R = bundle("e2"), two_siblings(), line()
        cases = [(b.space, b.generators["s"]), negative_events_line(), (L, sibling_swap(L))]
        cases += [(L, translation(L, -1)), (L, translation(L, 2))]
        for space, h in cases:
            for branch in sorted(space.branches):
                assert_table_matches_oracle(space, h, Embedding(branch))
        assert _ray_events(R, translation(R), root_embedding(R)) == ()
        # the shift by -1 tops its events with the preimage 1 of the departure 0
        assert _ray_events(L, translation(L, -1), root_embedding(L)) == ((0, 1), (1, 1))

    def test_large_denominators_sort_exactly(self):
        # departures and breakpoints about 10**-30 apart, on both sides of
        # 0: an order read off numerators would misplace them, and floats
        # cannot tell 1/10**30 from 1/(10**30 + 1)
        big = 10**30
        L = LeafSpace.build(
            Side.NEGATIVE,
            {
                "r": (None, None), "a": ("r", F(1, big)), "b": ("r", F(1, big + 1)),
                "c": ("r", F(-7, big + 1)),
            },
        )
        pl = PLMap.make([(F(-3, big - 1), F(-3, big - 1)), (F(2, big), F(5, big))], 1, F(1, 7))
        h = Homeo({b: b for b in L.branches}, {b: pl for b in L.branches})
        for g in (h, invert_homeo(h), translation(L, F(1, 3**60))):
            for branch in sorted(L.branches):
                events = assert_table_matches_oracle(L, g, Embedding(branch))
                assert len(events) >= 4

    def test_coinciding_events_appear_once(self):
        # the departures 1 and 2 under x -> 2x: the preimage of 2 is the
        # pair (2, 2) before reduction, the departure 1 after it
        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "a": ("r", 1), "b": ("r", 2)})
        double = PLMap.affine(2, 0)
        h = Homeo({b: b for b in L.branches}, {b: double for b in L.branches})
        assert _ray_events(L, h, Embedding("a")) == ((1, 2), (1, 1), (2, 1))
        # a breakpoint at the departure 0, and a preimage of it at a breakpoint
        S = two_siblings()
        for points, want in (([(0, 0)], ((0, 1),)), ([(-1, 0), (0, 1)], ((-1, 1), (0, 1)))):
            pl = PLMap.make(points, 2, 3)
            h = Homeo({b: b for b in S.branches}, {b: pl for b in S.branches})
            assert assert_table_matches_oracle(S, h, Embedding("b1")) == want

    def test_uncovered_chain_branch_raises(self):
        L = two_siblings()
        probe = Homeo({"b1": "b1"}, {"b1": PLMap.identity()})
        for ray_data in (_ray_events, oracle_ray_events):
            with pytest.raises(ActionError, match="homeomorphism undefined on branch 'r'"):
                ray_data(L, probe, Embedding("b1"))


def fresh(h):
    """A new homeo with ``h``'s maps, keeping nothing yet."""
    return Homeo(h.branch_map, h.branch_pl)


def kept(h):
    """The ray data ``h`` keeps: its event tables and its overlap rays."""
    return h._events, h._overlaps


class TestKeptRayData:
    """A homeo keeps its events and overlap ray per space and embedding,
    and no germ; what raises is never kept, and a fault on the letterwise
    route breaks even a one-letter word."""

    @staticmethod
    def reflecting():
        # an unchecked chart map x -> -x: the upper ray of the child's line lands
        # on the root below 0, off that line, and never comes back
        L = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "b": ("r", F(0))})
        flip = record_of((), (), F(-1), F(-1), F(0))
        return L, Homeo({"r": "r", "b": "b"}, {"r": flip, "b": flip}), Embedding("b")

    def test_a_ray_that_never_returns_raises_on_every_call(self):
        L, h, e = self.reflecting()
        for _ in range(2):
            with pytest.raises(ActionError, match="image ray never returns"):
                overlap_ray(L, h, e)
        assert kept(h) == ({(L, "b"): ((0, 1),)}, {})

    def test_samples_off_the_line_raise_on_every_call(self):
        # the samples above the top event leave the line, and the root
        # chart's tail, which the default germ reads, is not increasing
        L, h, e = self.reflecting()
        assert line_image(L, h, e, F(1)) is line_image(L, h, e, F(2)) is None
        assert Germ.of(h.branch_pl["r"]).slope == -1
        for _ in range(2):
            with pytest.raises(ActionError, match="chart map of the root 'r' is not increasing"):
                induced_germ(L, h, e)
        assert kept(h) == ({}, {})

    def test_a_wrong_kept_letter_germ_breaks_the_one_letter_word(self, monkeypatch):
        # no germ is kept; a fault on the letter's own germ, which only the
        # letterwise route reads (the word's homeo is a new object), breaks
        # the one-letter word
        b = bundle("e3")
        e, f = root_embedding(b.space), b.generators["f"]
        word = Word.parse("f")
        germ = word_germ(b.space, b.generators, word, e)
        assert kept(f) == ({}, {})
        real = action.induced_germ

        def fault(space, h, e, threshold=None):
            g = real(space, h, e, threshold)
            return g * Germ(2, 0) if h is f else g

        monkeypatch.setattr(action, "induced_germ", fault)
        with pytest.raises(GermMismatchError):
            word_germ(b.space, b.generators, word, e)
        monkeypatch.undo()
        assert word_germ(b.space, b.generators, word, e) == germ

    def test_one_homeo_on_two_spaces_keeps_two_records(self):
        from germkit.action import extend_space_for_action

        L, gens = TestLazyExtension.windowed()
        bigger = extend_space_for_action(L, gens, 4)
        v, e = gens["v"], root_embedding(L)
        assert overlap_ray(L, v, e) is overlap_ray(bigger, v, e) is FULL_LINE
        assert induced_germ(L, v, e) == induced_germ(bigger, v, e) == Germ.identity()
        assert list(v._events) == list(v._overlaps) == [(L, "r"), (bigger, "r")]

    def test_one_homeo_along_two_lines_keeps_one_entry_per_line(self):
        # the key holds the line's branch: the lines through r and b1 of one
        # space have different tables, and neither reads the other's
        b = bundle("e3")
        k, cuts = fresh(b.generators["k"]), [F(n) for n in (-3, -1, 0, 1, 5)]
        tables = {"r": ((0, 1), (1, 1)), "b1": ((-1, 1), (-1, 2), (0, 1), (1, 1))}
        for branch, table in tables.items():
            e = Embedding(branch)
            assert _ray_events(b.space, k, e) == table
            assert overlap_ray(b.space, k, e) == oracle_overlap_ray(b.space, k, e)
            assert [moved_point_witness(b.space, k, e, n) for n in cuts] == [
                oracle_moved_point_witness(b.space, k, e, n) for n in cuts
            ]
        keys = [(b.space, branch) for branch in tables]
        assert kept(k) == (dict(zip(keys, tables.values())), dict.fromkeys(keys, FULL_LINE))


class TestInducedGermCalls:
    @staticmethod
    def counted(monkeypatch):
        calls = dict.fromkeys(
            (
                "_line_image", "_overlap_scan", "_ray_event_set", "induced_germ",
                "compose_homeo",
            ),
            0,
        )
        for attr in calls:
            original = getattr(action, attr)

            def counting(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(action, attr, counting)
        return calls

    @pytest.mark.parametrize("name, gen", [("e2", "s"), ("e3", "f"), ("e3", "k")])
    def test_default_reads_the_root_chart_and_never_probes(self, monkeypatch, name, gen):
        b = bundle(name)
        h, e = fresh(b.generators[gen]), root_embedding(b.space)
        calls = self.counted(monkeypatch)
        germ = action.induced_germ(b.space, h, e)
        assert germ == Germ.of(h.branch_pl[b.space.root])
        assert calls == {
            "_line_image": 0, "_overlap_scan": 0, "_ray_event_set": 0, "induced_germ": 1,
            "compose_homeo": 0,
        }
        assert action.induced_germ(b.space, h, e) == germ
        assert calls == {
            "_line_image": 0, "_overlap_scan": 0, "_ray_event_set": 0, "induced_germ": 2,
            "compose_homeo": 0,
        }
        assert kept(h) == ({}, {})  # nothing is kept

    def test_explicit_threshold_scans_once(self, monkeypatch):
        b = bundle("e2")
        h, e = fresh(b.generators["s"]), root_embedding(b.space)
        calls = self.counted(monkeypatch)
        germ = induced_germ(b.space, h, e, threshold=F(5))
        assert calls["_overlap_scan"] == calls["_ray_event_set"] == 1
        probes = calls["_line_image"]
        # a second threshold call samples again, on the kept events and scan
        assert induced_germ(b.space, h, e, threshold=F(6)) == germ
        assert calls["_overlap_scan"] == calls["_ray_event_set"] == 1
        assert calls["_line_image"] == probes + 2
        assert overlap_ray(b.space, h, e) == F(0)
        assert calls["_overlap_scan"] == calls["_ray_event_set"] == 1
        assert calls["_line_image"] == probes + 2

    def test_ray_data_is_built_and_scanned_once_per_line(self, monkeypatch):
        # repeated scans, threshold germs and witnesses along e3's lines
        # through r and b1, both FULL_LINE: one event build and one scan each
        b = bundle("e3")
        k = fresh(b.generators["k"])
        calls = self.counted(monkeypatch)
        for _ in range(3):
            for branch in ("r", "b1"):
                e = Embedding(branch)
                assert overlap_ray(b.space, k, e) is FULL_LINE
                induced_germ(b.space, k, e, threshold=F(2))
                moved_point_witness(b.space, k, e, F(0))
        assert calls["_ray_event_set"] == calls["_overlap_scan"] == 2
        assert len(k._events) == len(k._overlaps) == 2

    def test_what_raises_runs_again_on_every_call(self, monkeypatch):
        # a scan that raises keeps its events but no threshold, so each call
        # scans again; an event build that raises keeps nothing
        L, h, e = TestKeptRayData.reflecting()
        S = two_siblings()
        probe = Homeo({"b1": "b1"}, {"b1": PLMap.identity()})
        calls = self.counted(monkeypatch)
        for n in range(1, 4):
            with pytest.raises(ActionError, match="image ray never returns"):
                overlap_ray(L, h, e)
            assert calls["_overlap_scan"] == n and calls["_ray_event_set"] == 1
        for n in range(2, 5):
            with pytest.raises(ActionError, match="homeomorphism undefined on branch 'r'"):
                moved_point_witness(S, probe, Embedding("b1"), F(0))
            assert calls["_ray_event_set"] == n
        assert kept(h) == ({(L, "b"): ((0, 1),)}, {}) and kept(probe) == ({}, {})

    def test_homomorphism_case_germs_each_letter_once(self, monkeypatch):
        # four composite germs plus one per letter of each word, each word
        # composed from its first letter; every germ reads a root chart, so
        # no probe runs and a second run of the case costs the same
        b = bundle("e3")
        w1, w2 = Word.parse("f k f k^-1"), Word.parse("k f^-1 f^-1")
        words = [w1 * w2, w1, w2, ~w1]
        case = (b, root_embedding(b.space), 0, w1, w2)
        calls = self.counted(monkeypatch)
        assert suites._homomorphism_check(case) is None
        assert calls["induced_germ"] == 4 + sum(len(w) for w in words) == 18
        assert calls["_line_image"] == calls["_ray_event_set"] == calls["_overlap_scan"] == 0
        assert calls["compose_homeo"] == sum(max(len(w) - 1, 0) for w in words) == 10
        assert suites._homomorphism_check(case) is None
        assert calls["induced_germ"] == 36 and calls["_line_image"] == 0
        assert calls["compose_homeo"] == 20

    def test_threshold_check_scans_and_builds_events_once(self, monkeypatch):
        # the overlap ray and two threshold germs of one e1 homeo: one scan
        # and one event build, against three scans and three builds when
        # nothing was kept; the default germ reads the root chart
        b = bundle("e1")
        h = fresh(b.generators["u"])
        calls = self.counted(monkeypatch)
        assert suites._threshold_check((b, root_embedding(b.space), "u", h)) is None
        assert calls["_overlap_scan"] == calls["_ray_event_set"] == 1

    def test_d_homomorphism_germs_each_generator_letter_once_per_target(self, monkeypatch):
        config = suites.SuiteConfig(examples=("e3",))
        targets = suites.resolve_targets(config)
        letters = {}
        for t in targets:
            for g in t.generators.values():
                letters[id(g)] = g
                letters[id(invert_homeo(g))] = g._inverse
        # every letter is germed on the letterwise route, and no default
        # germ probes the line or reads a ray event
        germs = Counter()
        real = action.induced_germ

        def counted_germ(space, h, e, threshold=None):
            germs[id(h)] += 1
            return real(space, h, e, threshold)

        calls = self.counted(monkeypatch)
        monkeypatch.setattr(action, "induced_germ", counted_germ)
        report = suites.run_suite("d-homomorphism", config, targets)
        assert report.passed
        assert all(germs[i] > 0 for i in letters)
        assert calls["_line_image"] == calls["_ray_event_set"] == 0

    def test_one_letter_word_is_a_new_homeo(self):
        b = bundle("e3")
        f = b.generators["f"]
        h = word_homeo(b.space, b.generators, Word.parse("f"))
        assert h == f and h is not f
        finv = word_homeo(b.space, b.generators, Word.parse("f^-1"))
        assert finv == invert_homeo(f) and finv is not f._inverse

    def test_invalid_composite_names_the_word(self):
        L = two_siblings()
        ident = PLMap.identity()
        fold = Homeo({"r": "r", "b1": "b1", "b2": "b1"}, {b: ident for b in L.branches})
        with pytest.raises(ActionError, match="invalid homeomorphism x x: branch_map is not"):
            word_homeo(L, {"x": fold}, Word.parse("x x"))


# ---------------------------------------------------------------------------
# Word homeos and germs against the letter-by-letter route


def first_failure(germ_of, words):
    """Index, type and message of the first word whose germ raises."""
    for i, w in enumerate(words):
        try:
            germ_of(w)
        except ActionError as exc:
            return i, type(exc), str(exc)
    return None


class TestWordRouteOracle:
    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_words_match_the_oracle(self, name):
        b = bundle(name)
        e, words = root_embedding(b.space), oracle_words(b)
        for w in words:
            assert word_homeo(b.space, b.generators, w) == oracle_word_homeo(
                b.space, b.generators, w
            )
            assert word_germ(b.space, b.generators, w, e) == oracle_word_germ(
                b.space, b.generators, w, e
            )
        for letter in {letter for w in words for letter in w.letters}:
            h = letter_homeo(b.generators, *letter)
            assert induced_germ(b.space, h, e) == oracle_induced_germ(b.space, h, e)

    @pytest.mark.parametrize("text", ["zz", "f zz", "zz f", "f k zz^-1"])
    def test_undeclared_letter_raises_as_the_oracle(self, text):
        b = bundle("e3")
        e, w = root_embedding(b.space), Word.parse(text)
        with pytest.raises(UnknownGeneratorError) as oracle:
            oracle_word_germ(b.space, b.generators, w, e)
        with pytest.raises(UnknownGeneratorError, match=f"^{oracle.value}$"):
            word_germ(b.space, b.generators, w, e)
        with pytest.raises(UnknownGeneratorError, match=f"^{oracle.value}$"):
            word_homeo(b.space, b.generators, w)

    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_skewed_letter_germ_fails_on_the_oracle_word(self, monkeypatch, name):
        # the oracle germs each letter on a new homeo, so the fault finds
        # the letter by its maps; a one-letter word's composite is skewed
        # too, and the first failure is a longer word
        b = bundle(name)
        skewed = letter_homeo(b.generators, sorted(b.generators)[-1], -1)
        real = action.induced_germ

        def fault(space, h, e, threshold=None):
            g = real(space, h, e, threshold)
            return g * Germ(2, 0) if h == skewed else g

        monkeypatch.setattr(action, "induced_germ", fault)
        e, words = root_embedding(b.space), oracle_words(b)
        got = first_failure(lambda w: word_germ(b.space, b.generators, w, e), words)
        want = first_failure(lambda w: oracle_word_germ(b.space, b.generators, w, e), words)
        assert got == want and got[1] is GermMismatchError


# ---------------------------------------------------------------------------
# The return-map probe against the point route


def probe_points(space, h, e):
    """Every ray event, every gap midpoint, one either side of each event,
    and 10**6 (0 and +-1 when there are no events)."""
    events = oracle_ray_events(space, h, e) or [F(0)]
    mids = [(a + b) / 2 for a, b in zip(events, events[1:])]
    around = [ev + step for ev in events for step in (-1, 1)]
    return sorted({*events, *mids, *around, F(10**6)})


def probe_outcome(probe, space, h, e, x):
    try:
        return probe(space, h, e, x)
    except (ActionError, LeafSpaceError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def int_probe(scale):
    """``action._line_image`` on ``x``'s reduced pair scaled by ``scale``."""

    def probe(space, h, e, x):
        return action._line_image(space, h, e, scale * x.numerator, scale * x.denominator)

    return probe


INT_PROBES = [int_probe(scale) for scale in (1, 2, 3)]


def assert_probes_match(space, h, e):
    """``line_image`` and the integer entry, on reduced pairs and on pairs
    scaled by 2 and 3, give the oracle's value or raise its error."""
    for x in probe_points(space, h, e):
        want = probe_outcome(oracle_line_image, space, h, e, x)
        for probe in (line_image, *INT_PROBES):
            got = probe_outcome(probe, space, h, e, x)
            assert got == want, (e.branch, x, got)


class TestLineImageOracle:
    def test_random_homeos_on_both_sides(self):
        gen = CaseGen(41)
        sides = set()
        for _ in range(20):
            space = gen.leafspace(4)
            sides.add(space.side)
            h = gen.homeo(space)
            for g in (h, invert_homeo(h)):
                for branch in sorted(space.branches):
                    assert_probes_match(space, g, Embedding(branch))
        assert sides == {Side.NEGATIVE, Side.POSITIVE}

    def test_swaps_composites_and_inverses(self):
        gen = CaseGen(42)
        off_line = 0
        for _ in range(10):
            space, swap, d = gen.swap_pair()
            stretch = compose_homeo(gen.homeo(space), swap)
            for g in (swap, stretch, invert_homeo(stretch)):
                for branch in sorted(space.branches):
                    e = Embedding(branch)
                    assert_probes_match(space, g, e)
                    off_line += sum(line_image(space, g, e, x) is None for x in probe_points(space, g, e))
        assert off_line > 0  # the swaps carry some probes off their line

    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_bundle_words(self, name):
        b = bundle(name)
        for w in reduced_words(sorted(b.generators), 2):
            h = word_homeo(b.space, b.generators, w)
            for branch in sorted(b.space.branches):
                assert_probes_match(b.space, h, Embedding(branch))

    def test_undefined_branches_raise_as_apply_homeo_does(self):
        L = two_siblings()
        ident = PLMap.identity()
        partial = Homeo({"b1": "b1"}, {"b1": ident})
        undeclared = Homeo({"r": "zz", "b1": "b1", "b2": "b2"}, {b: ident for b in L.branches})
        cases = [(partial, "b1", F(-1)), (partial, "b1", F(1)), (undeclared, "b1", F(1))]
        outcomes = []
        for h, branch, x in cases:
            got = probe_outcome(line_image, L, h, Embedding(branch), x)
            assert got == probe_outcome(oracle_line_image, L, h, Embedding(branch), x)
            for probe in INT_PROBES:
                assert probe_outcome(probe, L, h, Embedding(branch), x) == got
            outcomes.append(got)
        assert outcomes[0] == (-1, 1)
        assert outcomes[1] == ("raised", "ActionError", "homeomorphism undefined on branch 'r'")
        assert outcomes[2][:2] == ("raised", "LeafSpaceError")

    def test_pairs_are_reduced_and_fixed_points_read_as_x(self):
        L = two_siblings()
        e = Embedding("b1")
        swap, shift = sibling_swap(L), translation(L, F(1, 2))
        assert line_image(L, shift, e, F(3, 2)) == (2, 1)
        assert line_image(L, shift, e, F(-7, 4)) == (-5, 4)
        assert line_image(L, swap, e, F(-1)) is None  # b1's lower ray goes to b2
        x = F(5, 3)
        assert line_image(L, swap, e, x) == (x.numerator, x.denominator)


class TestLineImageBuildsNoFraction:
    def test_probes_on_bundle_words(self, fraction_count):
        probes = []
        for name in ("e2", "e3"):
            b = bundle(name)
            for w in reduced_words(sorted(b.generators), 2):
                h = word_homeo(b.space, b.generators, w)
                for branch in sorted(b.space.branches):
                    e = Embedding(branch)
                    probes += [(b.space, h, e, x) for x in probe_points(b.space, h, e)]
        for probe in probes:  # build the kernels first
            line_image(*probe)
        before = fraction_count[0]
        images = [line_image(*probe) for probe in probes]
        assert fraction_count[0] == before
        assert any(y is None for y in images) and any(y is not None for y in images)
        F(1, 3)  # one construction shows the counter counts
        assert fraction_count[0] == before + 1

    @staticmethod
    def warm(h):
        """Build the chart kernels of ``h``, as an earlier call would have;
        ``h`` keeps nothing."""
        for pl in h.branch_pl.values():
            pl(0), pl.preimage(0)

    def test_default_germ_miss(self, fraction_count):
        b = bundle("e3")
        e = root_embedding(b.space)
        words = reduced_words(sorted(b.generators), 2)
        homeos = [fresh(word_homeo(b.space, b.generators, w)) for w in words]
        for h in homeos:
            self.warm(h)
        before = fraction_count[0]
        for h in homeos:
            induced_germ(b.space, h, e)
        assert fraction_count[0] == before

    def test_overlap_scan(self, fraction_count):
        # a scan on a cold homeo builds its event table on ints and only
        # the threshold it returns as a Fraction; the kept ray builds none
        b = bundle("e2")
        e = root_embedding(b.space)
        words = reduced_words(sorted(b.generators), 2)
        homeos = [fresh(word_homeo(b.space, b.generators, w)) for w in words]
        for h in homeos:
            self.warm(h)
        rays = []
        for h in homeos:
            before = fraction_count[0]
            t = overlap_ray(b.space, h, e)
            assert fraction_count[0] == before + (t is not FULL_LINE)
            assert overlap_ray(b.space, h, e) is t
            assert fraction_count[0] == before + (t is not FULL_LINE)
            rays.append(t)
        assert any(t is FULL_LINE for t in rays) and any(t is not FULL_LINE for t in rays)
        # a threshold is a kept event
        for h, t in zip(homeos, rays):
            assert t is FULL_LINE or (t.numerator, t.denominator) in _ray_events(b.space, h, e)

    def test_explicit_threshold_germ(self, fraction_count):
        # on a cold homeo the first germ scans, and builds the scanned
        # threshold 0 and nothing else; the second reads the kept ray
        b = bundle("e2")
        h, e = fresh(b.generators["s"]), root_embedding(b.space)
        self.warm(h)
        thresholds = [F(5), F(10**6, 7)]
        before = fraction_count[0]
        germs = [induced_germ(b.space, h, e, threshold=thresholds[0])]
        assert fraction_count[0] == before + 1
        germs.append(induced_germ(b.space, h, e, threshold=thresholds[1]))
        assert fraction_count[0] == before + 1
        assert overlap_ray(b.space, h, e) == 0
        assert germs[0] == germs[1] == induced_germ(b.space, fresh(h), e)

    def test_witness_none(self, fraction_count):
        # moves points below 0 only; the departures 1, 2, 3 are events above
        # the cut 0, so every third of a gap and every event is probed
        L = LeafSpace.build(
            Side.NEGATIVE,
            {"r": (None, None), "a": ("r", 1), "b": ("r", 2), "c": ("r", 3)},
        )
        bend = PLMap.make([(-2, -2), (-1, F(-3, 2)), (0, 0)], 1, 1)
        h, e = Homeo({b: b for b in L.branches}, {b: bend for b in L.branches}), Embedding("a")
        assert validate_homeo(L, h) is None
        cuts = [F(0), F(1, 2), F(3)]
        self.warm(h)
        before = fraction_count[0]
        assert [moved_point_witness(L, h, e, cut) for cut in cuts] == [None] * 3
        assert fraction_count[0] == before
        assert kept(h) == ({(L, "a"): tuple((n, 1) for n in range(-2, 4))}, {})
        assert moved_point_witness(L, h, e, F(-3)) == F(-5, 3)  # the map fixes x <= -2


class TestChartMapsStayOnInts:
    def test_word_germs_and_overlap_rays_build_no_chart_field(self, monkeypatch):
        """Word homeos, their validation, ray events, overlap rays and
        induced germs read chart maps as ints: no chart map builds its
        ``Fraction`` fields."""
        bundles = [bundle(name) for name in ("e1", "e3")]
        original = PLMap._build_fields
        built = []
        monkeypatch.setattr(PLMap, "_build_fields", lambda f: built.append(f) or original(f))
        for b in bundles:
            e = root_embedding(b.space)
            for w in reduced_words(sorted(b.generators), 3):
                word_germ(b.space, b.generators, w, e)
                overlap_ray(b.space, word_homeo(b.space, b.generators, w), e)
        assert built == []
