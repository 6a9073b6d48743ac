"""Acceptance gate: one test per shipped criterion, at its stated budget.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion.  Every check is exact rational arithmetic; the time limits are
generous on desk hardware and guard against accidental blow-ups.
"""

import time
from fractions import Fraction as F

from germkit import (
    Germ,
    OrderSign,
    Word,
    compare,
    induced_germ,
    invert_homeo,
    moved_point_witness,
    overlap_ray,
    reduced_words,
    root_embedding,
    word_germ,
)
from germkit import serialize
from germkit.blowup import BlowupSpace, StabilizerData, blown_induced_germ, stabilizer_check
from germkit.examples import bundle
from germkit.fuzz import CaseGen
from germkit.suites import (
    SuiteConfig,
    _action_law_samples,
    resolve_targets,
    run_suite,
)
from germkit.blowup import validate_alpha_action


def _done(number: int, label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_germ_group_axioms():
    started = time.perf_counter()
    gen = CaseGen(101)  # defaults: <=5 breakpoints, denominators <=100
    maps = [gen.plmap() for _ in range(1002)]  # sliding window: 1000 triples
    failures = 0
    for i in range(len(maps) - 2):
        f, g, h = maps[i], maps[i + 1], maps[i + 2]
        gf, gg, gh = Germ.of(f), Germ.of(g), Germ.of(h)
        ok = (
            (gf * gg) * gh == gf * (gg * gh)
            and gf * Germ.identity() == gf == Germ.identity() * gf
            and gf * ~gf == Germ.identity() == ~gf * gf
            and Germ.of(f * g) == gf * gg
        )
        failures += not ok
    assert failures == 0
    _done(1, "germ group axioms on 1000 random maps", started, budget=5.0)


def test_criterion_2_quotient_well_defined():
    started = time.perf_counter()
    gen = CaseGen(102)
    for _ in range(500):
        f, g = gen.plmap(), gen.plmap()
        f2 = gen.mutate_below(f, gen.fraction())
        g2 = gen.mutate_below(g, gen.fraction())
        expected = Germ.of(f * g)
        assert Germ.of(f2) * Germ.of(g2) == expected
        assert Germ.of(f2 * g2) == expected
    _done(2, "germ product ignores representatives below a cutoff (500 pairs)", started, budget=5.0)


def test_criterion_3_left_order_laws():
    started = time.perf_counter()
    gen = CaseGen(103)
    le = lambda a, b: compare(a, b) in (OrderSign.LT, OrderSign.EQ)
    for _ in range(1000):
        u, v, w = gen.germ(), gen.germ(), gen.germ()
        forward, backward = compare(u, v), compare(v, u)
        if u == v:
            assert forward is OrderSign.EQ is backward
        else:
            assert {forward, backward} == {OrderSign.LT, OrderSign.GT}
        a, b, c = sorted((u, v, w), key=lambda g: (g.slope, g.offset))
        assert le(a, b) and le(b, c) and le(a, c)
        assert compare(u, v) == compare(w * u, w * v)
    _done(3, "trichotomy, transitivity, left-invariance on 1000 triples", started)


def test_criterion_4_threshold_independence():
    started = time.perf_counter()
    for name in ("e1", "e2", "e3"):
        b = bundle(name)
        e = root_embedding(b.space)
        gen = CaseGen(104)
        homeos = list(b.generators.values())
        homeos += [invert_homeo(h) for h in b.generators.values()]
        while len(homeos) < 200 + 2 * len(b.generators):
            homeos.append(gen.homeo(b.space))
        for h in homeos:
            t = overlap_ray(b.space, h, e)
            base = F(0) if t is None else t
            low = induced_germ(b.space, h, e, threshold=base)
            high = induced_germ(b.space, h, e, threshold=base + 10)
            assert low == high == induced_germ(b.space, h, e)
    _done(4, "induced germ agrees at thresholds t and t+10 (200 random homeos each)", started)


def test_criterion_5_homomorphism():
    started = time.perf_counter()
    for name in ("e1", "e2", "e3"):
        b = bundle(name)
        e = root_embedding(b.space)
        gen = CaseGen(105)
        names = sorted(b.generators)
        for _ in range(500):
            w1, w2 = gen.word(names, 8), gen.word(names, 8)
            combined = word_germ(b.space, b.generators, w1 * w2, e, {})
            split = word_germ(b.space, b.generators, w1, e, {}) * word_germ(
                b.space, b.generators, w2, e, {}
            )
            assert combined == split
    _done(5, "d(w1 w2) = d(w1) d(w2) on 500 word pairs per bundled action", started, budget=10.0)


def test_criterion_6_nontriviality_witness():
    started = time.perf_counter()
    cuts = (F(0), F(10**3), F(10**6))
    for name in ("e1", "e2", "e3"):
        b = bundle(name)
        e = root_embedding(b.space)
        gen = CaseGen(106)
        homeos = list(b.generators.values())
        while len(homeos) < 30 + len(b.generators):
            homeos.append(gen.homeo(b.space))
        for h in homeos:
            witnesses = [moved_point_witness(b.space, h, e, n) for n in cuts]
            for n, m in zip(cuts, witnesses):
                if m is not None:
                    assert m > n
            if all(m is not None for m in witnesses):
                assert not induced_germ(b.space, h, e).is_identity()
    # converse failure mode: the branch swap fixes every upper ray
    b = bundle("e2")
    e = root_embedding(b.space)
    swap = b.generators["s"]
    assert moved_point_witness(b.space, swap, e, F(0)) is None
    assert induced_germ(b.space, swap, e) == Germ.identity()
    _done(6, "upper-ray witnesses force nontrivial germs; the swap yields none and germ 1", started)


def test_criterion_7_action_law():
    started = time.perf_counter()
    config = SuiteConfig(seed=107, word_ball=4, plain_samples=100, interval_samples=20)
    for label in ("e1", "e3"):
        target = next(t for t in resolve_targets(config, need_blowup=True) if t.name == label)
        space = target.blowup
        samples = _action_law_samples(space, config)
        assert sum(1 for q in samples if not q.is_interval()) >= 100
        assert sum(1 for q in samples if q.is_interval()) >= 20
        assert validate_alpha_action(space, samples, ball=4) is None
    _done(7, "twisted action law over all word pairs of total length <= 4", started, budget=30.0)


def test_criterion_8_trivial_stabilizer():
    started = time.perf_counter()
    b = bundle("e3")
    assert b.stabilizer.phi["k"](F(1, 2)) == F(3, 4)
    space = BlowupSpace(b.space, b.generators, b.marked, b.depth, b.stabilizer)
    assert stabilizer_check(space, ball=5) is None
    faulty = bundle("e3-phi-fault")
    fspace = BlowupSpace(faulty.space, faulty.generators, faulty.marked, faulty.depth, faulty.stabilizer)
    assert stabilizer_check(fspace, ball=5) == Word.parse("k")
    _done(8, "no word of length <= 5 fixes the midpoint; the faulty phi reports 'k'", started)


def test_criterion_9_injectivity_ball():
    started = time.perf_counter()
    b = bundle("e3")
    space = BlowupSpace(b.space, b.generators, b.marked, b.depth, b.stabilizer)
    e = root_embedding(b.space)
    words = [w for w in reduced_words(("f", "k"), 5) if not w.is_identity()]
    assert len(words) == 484
    for w in words:
        assert not blown_induced_germ(space, w, e).is_identity(), str(w)
    _done(9, "all 484 nontrivial words of length <= 5 have nontrivial blown germ", started, budget=60.0)


def test_criterion_10_structural():
    started = time.perf_counter()
    gen = CaseGen(110)
    for _ in range(100):
        space = gen.leafspace()
        marked = space.canonical(gen.interior_point(space))
        blown = BlowupSpace(space, {}, marked, 2, StabilizerData((), {}))
        assert blown.classify() is space.classify()
        text = serialize.emit_leafspace(space)
        assert serialize.emit_leafspace(serialize.parse_leafspace(text)) == text
    for name in ("e1", "e2", "e3", "e3-phi-fault", "e3-coset-fault"):
        ex = bundle(name)
        assert serialize.is_canonical(serialize.emit_leafspace(ex.space), "leafspace")
        assert serialize.is_canonical(serialize.emit_action(ex.generators), "action")
        if ex.marked is not None:
            text = serialize.emit_blowup_spec(ex.marked, ex.stabilizer, ex.depth, ex.ball)
            assert serialize.is_canonical(text, "blowup")
    config = SuiteConfig(seed=110, cases=60)
    for suite in ("germ-group-axioms", "order-laws"):
        assert run_suite(suite, config).canonical_json() == run_suite(suite, config).canonical_json()
    _done(10, "classification blow-up invariance, byte round-trips, reproducible reports", started)
