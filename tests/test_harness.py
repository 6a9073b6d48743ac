"""Determinism, replayability and suite-runner behaviour."""

import hashlib
from fractions import Fraction as F

import pytest

from germkit.action import validate_homeo
from germkit.examples import bundle
from germkit.fuzz import CaseGen, FuzzBounds
from germkit.plmap import check as check_plmap
from germkit.suites import SuiteConfig, SuiteError, SUITES, replay, run_suite


class TestFuzz:
    def test_identical_streams(self):
        a = CaseGen(0)
        b = CaseGen(0)
        assert [a.plmap() for _ in range(20)] == [b.plmap() for _ in range(20)]
        assert [a.word(["f", "k"]) for _ in range(20)] == [b.word(["f", "k"]) for _ in range(20)]

    def test_different_seeds_differ(self):
        assert [CaseGen(0).plmap() for _ in range(5)] != [CaseGen(1).plmap() for _ in range(5)]

    def test_zero_breakpoints_means_affine(self):
        gen = CaseGen(3, FuzzBounds(max_breakpoints=0))
        for _ in range(25):
            assert gen.plmap().breakpoints == ()

    def test_generated_objects_validate(self):
        gen = CaseGen(11)
        for _ in range(25):
            assert check_plmap(gen.plmap()) is None
        space = bundle("e3").space
        for _ in range(10):
            assert validate_homeo(space, gen.homeo(space)) is None
        for _ in range(10):
            L = gen.leafspace()
            assert validate_homeo(L, gen.homeo(L)) is None

    def test_mutation_preserves_ray(self):
        gen = CaseGen(5)
        for _ in range(20):
            f = gen.plmap()
            cut = gen.fraction()
            g = gen.mutate_below(f, cut)
            for d in (0, 1, 7):
                assert g(cut + d) == f(cut + d)


class TestRunner:
    def test_unknown_suite(self):
        with pytest.raises(SuiteError):
            run_suite("no-such-suite", SuiteConfig())

    def test_reports_are_deterministic(self):
        cfg = SuiteConfig(seed=42, cases=40)
        for name in ("germ-group-axioms", "order-laws", "d-homomorphism"):
            first = run_suite(name, cfg)
            second = run_suite(name, cfg)
            assert first.canonical_json() == second.canonical_json()

    def test_seed_changes_stream_not_verdict(self):
        a = run_suite("germ-quotient", SuiteConfig(seed=1, cases=30))
        b = run_suite("germ-quotient", SuiteConfig(seed=2, cases=30))
        assert a.passed and b.passed
        assert a.canonical_json() != b.canonical_json()

    def test_timings_excluded_from_canonical_form(self):
        report = run_suite("order-laws", SuiteConfig(cases=10))
        assert report.elapsed > 0
        assert "elapsed" not in report.canonical_json()


class TestCounterexamples:
    def test_coset_fault_replays(self):
        cfg = SuiteConfig(seed=0, examples=("e3-coset-fault",), interval_samples=10)
        report = run_suite("alpha-action-law", cfg)
        assert not report.passed
        assert report.counterexample is not None
        assert replay("alpha-action-law", cfg, report.counterexample)

    def test_phi_fault_replays(self):
        cfg = SuiteConfig(seed=0, examples=("e3-phi-fault",))
        report = run_suite("trivial-stabilizer", cfg)
        assert not report.passed
        assert report.counterexample["fixing_word"] == "k"
        assert replay("trivial-stabilizer", cfg, report.counterexample)

    # sha256 of each canonical report below; a change means the report bytes changed
    REPORT_SHA256 = {
        "alpha-action-law": "b662ea9aff94c6c1513ba4cacf3779734d94135a695c275dc9e65a515c16d1db",
        "d-homomorphism": "9cc214d128cc4af4069aed51de74253a5971b517566cb1c09254d11af71fec67",
        "d-nontriviality": "1a41133d0f889b0bd8d7145ba74e50eee9b6ba23f9dfb3f102b2a797df0812fc",
        "d-threshold-independence": "b9224c4e2bedfc8343080f150eab84750110c3428e7cf56242552cd405641c4a",
        "germ-group-axioms": "882bde673e47044e9c5b7c7495a2fa391e42b9630d58831d644784b3a0e1bbc9",
        "germ-quotient": "32abd3271fa3d575015152c0da37da87e2dc32b00420759a6e2dde0b1f466568",
        "injectivity-certificate": "af65a74cef652c025758074d041cd1f1248f4c79ac4a843c95ad3cd860fa69ec",
        "orbit-limit": "3d41900a0609b38517c0e2265a0ea68843d1a21dcdba689e37a0f035843d3b2f",
        "order-laws": "d9d6db4ffb31921b5cd034689e12b86cea6a165c2938a145f1e1857689c91580",
        "overlap-rays": "ec2a665e29024557bc0d594fbf187f71975c9a68fc4a0ccfc844d8bc18680865",
        "structural": "dc38e29a90b70a56bd4f4030bc119b2a1184c41ddaa339d820e4bd2c44db88ca",
        "trivial-stabilizer": "7753cc707a3365e58c538d10337049653f194268bf56693954604e7d1ddf8c58",
    }

    def test_every_suite_passes_on_bundles(self):
        cfg = SuiteConfig(seed=0, cases=40, plain_samples=12, interval_samples=6)
        assert sorted(SUITES) == sorted(self.REPORT_SHA256)
        for name in sorted(SUITES):
            report = run_suite(name, cfg)
            assert report.passed, (name, report.counterexample)
            digest = hashlib.sha256(report.canonical_json().encode()).hexdigest()
            assert digest == self.REPORT_SHA256[name], name
