"""Every suite catches an injected fault, and its counterexample replays.

For each suite a fault is put in place (a monkeypatch, or a bundled example
that is broken or repaired), the suite must fail, and :func:`replay` on its
payload must return True while the fault is in place and False once it is
undone.  Between them the cases emit every payload shape a suite can emit.
"""

import ast
import itertools
import json
import re
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

from germkit import action, blowup, examples, serialize, suites
from germkit.action import Homeo, UnknownGeneratorError, Word
from germkit.cli import main
from germkit.germ import Germ, OrderSign
from germkit.plmap import PLMap
from germkit.suites import SuiteConfig, SuiteError, replay, run_suite
from support import random_reduced_word

SMALL = SuiteConfig(seed=0, cases=20, plain_samples=4, interval_samples=4, stabilizer_ball=3)
E1 = replace(SMALL, examples=("e1",))


@pytest.fixture
def replays(monkeypatch):
    """``replays(name, config, inject, undo)`` runs ``name`` with ``inject``
    applied and replays its payload with the fault in place, then undone
    (``undo`` applied, ``inject`` not); it returns the payload."""

    def run(name, config, inject=None, undo=None):
        with monkeypatch.context() as m:
            if inject:
                inject(m)
            report = run_suite(name, config)
            assert not report.passed
            payload = report.counterexample
            assert replay(name, config, payload), payload
        with monkeypatch.context() as m:
            if undo:
                undo(m)
            assert not replay(name, config, payload), payload
        return payload

    return run


def set_bundle(name, change):
    """A fault that makes ``bundle(name)`` return ``change(original bundle)``."""

    def inject(m):
        build = examples._BUILDERS[name]
        m.setitem(examples._BUILDERS, name, lambda: change(build()))

    return inject


def repaired(name):
    """A bundled fault example replaced by the sound ``e3`` under its name."""
    return set_bundle(name, lambda broken: replace(examples.bundle("e3"), name=name))


def patched(owner, attr, make):
    """A fault that replaces ``owner.attr`` by ``make(original)``."""
    return lambda m: m.setattr(owner, attr, make(getattr(owner, attr)))


def exported(name, tmp_path):
    """``SuiteConfig`` file-path fields for ``bundle(name)`` written to files."""
    b = examples.bundle(name)
    texts = {
        "leafspace": serialize.emit_leafspace(b.space),
        "action": serialize.emit_action(b.generators),
    }
    if b.has_blowup:
        texts["blowup"] = serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball)
    paths = {}
    for kind, text in texts.items():
        path = tmp_path / f"{name}.{kind}.json"
        path.write_text(text)
        paths[f"{kind}_path"] = str(path)
    return paths


def non_idempotent(original):
    """An emitter whose every call pads its text with one more space."""
    pad = itertools.count()
    return lambda *args: original(*args) + " " * next(pad)


# ---------------------------------------------------------------------------
# Germ-level suites


def test_germ_group_wrong_inverse(replays):
    wrong = lambda inv: lambda g: Germ(1 / g.slope, g.offset / g.slope)
    payload = replays("germ-group-axioms", SMALL, patched(Germ, "__invert__", wrong))
    assert len(payload["maps"]) == 3


def test_germ_quotient_swapped_compose(replays):
    swapped = lambda mul: lambda f, g: mul(g, f)
    payload = replays("germ-quotient", SMALL, patched(PLMap, "__mul__", swapped))
    assert len(payload["maps"]) == 4


def test_order_laws_asymmetric_compare(replays):
    always_gt = lambda compare: lambda u, v: OrderSign.EQ if u == v else OrderSign.GT
    payload = replays("order-laws", SMALL, patched(suites, "compare", always_gt))
    assert len(payload["germs"]) == 3


# ---------------------------------------------------------------------------
# Action-level suites


def late_overlap(delay):
    def make(overlap_ray):
        def late(*args, **kwargs):
            t = overlap_ray(*args, **kwargs)
            return None if t is None else t + delay

        return late

    return patched(suites, "overlap_ray", make)


def test_overlap_threshold_not_minimal(replays):
    config = replace(SMALL, examples=("e2",))
    payload = replays("overlap-rays", config, late_overlap(2))
    assert payload["target"] == "e2" and payload["homeo"] == "s"


@pytest.mark.parametrize("delay", [1, F(1, 2000)])
def test_overlap_file_threshold_late(replays, tmp_path, delay):
    # file targets skip the swap cases, so only minimality can catch these
    config = replace(SMALL, **exported("e2", tmp_path))
    payload = replays("overlap-rays", config, late_overlap(delay))
    assert payload["target"] == "file"


def test_overlap_swap_threshold_off_by_one(replays):
    payload = replays("overlap-rays", E1, late_overlap(1))
    assert payload == {"target": "swap", "index": 0}


def test_overlap_swap_nontrivial_germ(replays):
    # only the swap's induced germ is wrong: the overlap ray itself is sound
    doubling = lambda induced_germ: lambda *args, **kwargs: Germ(2, 0)
    payload = replays("overlap-rays", E1, patched(suites, "induced_germ", doubling))
    assert payload == {"target": "swap", "index": 0}


def test_overlap_file_target_draws_no_swap(tmp_path):
    config = replace(SMALL, **exported("e2", tmp_path))
    message = "SpecFormatError('$.index: expected a swap index in [0, 0), got 0')"
    with pytest.raises(SuiteError, match=re.escape(message)):
        replay("overlap-rays", config, {"target": "swap", "index": 0})


def test_threshold_independence_default_threshold_differs(replays):
    def skewed(induced_germ):
        def germ(space, h, e, threshold=None):
            g = induced_germ(space, h, e, threshold=threshold)
            return g if threshold is not None else g * Germ(2, 0)

        return germ

    payload = replays(
        "d-threshold-independence", E1, patched(suites, "induced_germ", skewed)
    )
    assert payload["target"] == "e1"


def test_homomorphism_word_germ_drops_a_letter(replays):
    def drop(word_germ):
        return lambda space, gens, w, e: word_germ(space, gens, Word(w.letters[1:]), e)

    payload = replays("d-homomorphism", E1, patched(suites, "word_germ", drop))
    assert payload["target"] == "e1" and len(payload["words"]) == 2


def test_homomorphism_letterwise_mismatch(replays):
    # skew only the germs of composed words: every word's composite germ
    # then disagrees with its letters' product inside word_germ
    composites = {}

    def inject(m):
        word_homeo, induced_germ = action.word_homeo, action.induced_germ

        def recorded(*args, **kwargs):
            h = word_homeo(*args, **kwargs)
            composites[id(h)] = h
            return h

        def skewed(space, h, e, threshold=None):
            g = induced_germ(space, h, e, threshold)
            return g * Germ(2, 0) if composites.get(id(h)) is h else g

        m.setattr(action, "word_homeo", recorded)
        m.setattr(action, "induced_germ", skewed)

    payload = replays("d-homomorphism", E1, inject)
    assert payload["target"] == "e1" and len(payload["words"]) == 2


def test_homomorphism_replay_keeps_unknown_generator_an_input_error():
    payload = {"target": "e1", "case": 0, "words": ["zz", "u"]}
    with pytest.raises(UnknownGeneratorError):
        replay("d-homomorphism", E1, payload)


def test_replay_names_a_payload_target_the_config_does_not_resolve():
    payload = {"target": "e3", "case": 0, "words": ["f", "k"]}
    with pytest.raises(SuiteError, match=r"payload target 'e3' is not a resolved target \['e1'\]"):
        replay("d-homomorphism", SuiteConfig(examples=("e1",)), payload)


def e3_f_payload(**charts):
    """An ``overlap-rays`` payload of e3's ``f``, with chart records replaced."""
    record = serialize.homeo_to_data(examples.bundle("e3").generators["f"])
    record["branch_pl"].update(charts)
    return {"target": "e3", "homeo": "f", **record}


def action_law_sample(coord, height):
    """An ``alpha-action-law`` payload of ``f`` at a sample on e3's root."""
    sample = {"point": {"branch": "r", "coord": coord}, "height": height}
    return {"target": "e3", "outer": "f", "inner": "", "sample": sample}


def not_a_rational(path, text):
    return f"SpecFormatError(\"{path}: not a rational: '{text}' (expected 'p' or 'p/q')\")"


# case -> (suite, a payload its decode cannot read, the error it raised); a
# suite's first case is named after the suite
MALFORMED = {
    "alpha-action-law": ("alpha-action-law", {"target": "e3"}, "KeyError('sample')"),
    "alpha-action-law-bad-coord": (
        "alpha-action-law",
        action_law_sample("x", None),
        not_a_rational("$.sample.point.coord", "x"),
    ),
    "alpha-action-law-bad-height": (
        "alpha-action-law",
        action_law_sample("0", "x"),
        not_a_rational("$.sample.height", "x"),
    ),
    "germ-quotient-maps-not-a-list": (
        "germ-quotient",
        {"case": 0, "maps": 5},
        "SpecFormatError('$.maps: expected an array, got int')",
    ),
    "germ-group-axioms-maps-a-string": (
        "germ-group-axioms",
        {"case": 0, "maps": "fgh"},
        "SpecFormatError('$.maps: expected an array, got str')",
    ),
    "germ-group-axioms-bad-map": (
        "germ-group-axioms",
        {"case": 0, "maps": [{"points": []}, 5]},
        "SpecFormatError(\"$.maps[0]: missing field 'left_slope'\")",
    ),
    "structural-bad-leafspace": (
        "structural",
        {"case": 0, "leafspace": 5},
        "SpecFormatError('$.leafspace: expected an object, got int')",
    ),
    "orbit-limit": ("orbit-limit", {}, "KeyError('target')"),
    "orbit-limit-bad-cut": (
        "orbit-limit", {"target": "e3", "cut": "x", "word": "f"}, not_a_rational("$.cut", "x")
    ),
    "injectivity-certificate": (
        "injectivity-certificate",
        {"target": "e3", "word": 5},
        "AttributeError(\"'int' object has no attribute 'split'\")",
    ),
    "order-laws": (
        "order-laws",
        {"case": 0, "germs": 5},
        "SpecFormatError('$.germs: expected an array, got int')",
    ),
    "order-laws-germs-a-mapping": (
        "order-laws",
        {"case": 0, "germs": {"a": "1", "b": "0"}},
        "SpecFormatError('$.germs: expected an array, got dict')",
    ),
    "order-laws-bad-rational": (
        "order-laws",
        {"case": 0, "germs": [{"a": "x", "b": "0"}] * 3},
        not_a_rational("$.germs[0].a", "x"),
    ),
    "overlap-rays-chart-not-a-map": (
        "overlap-rays",
        e3_f_payload(r=5),
        "SpecFormatError(\"$.branch_pl['r']: expected an object, got int\")",
    ),
    # swap indices a run of SuiteConfig(examples=("e3",)) never draws: it
    # draws 20, and the decoder reads no further
    **{
        f"overlap-rays-swap-index-{name}": (
            "overlap-rays",
            {"target": "swap", "index": index},
            f"SpecFormatError({f'$.index: expected a swap index in [0, 20), got {index!r}'!r})",
        )
        for name, index in [
            ("a-string", "0"), ("a-bool", True), ("a-float", 0.0), ("negative", -1),
            ("past-the-stream", 20), ("huge", 10**9),
        ]
    },
    # a payload with no fixing word
    "trivial-stabilizer": (
        "trivial-stabilizer",
        {"target": "e3", "problem": "phi['k'] does not fix 0 and 1"},
        "KeyError('fixing_word')",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_replay_rejects_a_malformed_payload(case):
    name, payload, error = MALFORMED[case]
    message = f"suite '{name}' cannot decode its counterexample: {error}"
    with pytest.raises(SuiteError, match=re.escape(message)):
        replay(name, SuiteConfig(examples=("e3",)), payload)


def not_two_words(count):
    return f"SpecFormatError('$.words: expected two words, got {count}')"


# d-homomorphism payloads that are not a mapping, or whose words are not two
@pytest.mark.parametrize(
    "payload, error",
    [
        ({"target": "e3", "case": 0, "words": ["f"]}, not_two_words(1)),
        ({"target": "e3", "case": 0, "words": ["f", "k", "f"]}, not_two_words(3)),
        (
            {"target": "e3", "case": 0, "words": "f k"},
            "SpecFormatError('$.words: expected an array, got str')",
        ),
        (5, "5 is not a mapping"),
        (["f", "k"], "['f', 'k'] is not a mapping"),
    ],
    ids=["one-word", "three-words", "a-string", "an-int", "a-list"],
)
def test_replay_rejects_malformed_homomorphism_words(payload, error):
    message = f"suite 'd-homomorphism' cannot decode its counterexample: {error}"
    with pytest.raises(SuiteError, match=re.escape(message)):
        replay("d-homomorphism", SuiteConfig(examples=("e3",)), payload)


UNFAULTED = sorted(name for name, suite in suites.SUITES.items() if suite.fault is None)


@pytest.mark.parametrize("name", UNFAULTED)
def test_replay_rejects_a_fault_payload_on_a_suite_without_a_fault(name):
    assert len(UNFAULTED) == 10
    with pytest.raises(SuiteError, match=re.escape(f"suite '{name}' has no bundled fault to replay")):
        replay(name, SuiteConfig(), {"expected": "x"})


# blow-up suite -> a payload its decode reads on e3
BLOWN_PAYLOADS = {
    "alpha-action-law": {
        "outer": "f", "inner": "", "sample": {"point": {"branch": "r", "coord": "1"}, "height": None},
    },
    "trivial-stabilizer": {"fixing_word": "f"},
    "orbit-limit": {"cut": "0", "word": "f"},
    "injectivity-certificate": {"word": "f"},
}


@pytest.mark.parametrize("name", sorted(BLOWN_PAYLOADS))
def test_decode_rejects_a_payload_target_without_blowup_data(name):
    config = SuiteConfig()
    targets, decode = suites.resolve_targets(config), suites.SUITES[name].decode
    assert decode(config, targets, {"target": "e3", **BLOWN_PAYLOADS[name]})[0].name == "e3"
    message = "payload target 'e2' is not a resolved target ['e1', 'e3']"
    with pytest.raises(SuiteError, match=re.escape(message)):
        decode(config, targets, {"target": "e2", **BLOWN_PAYLOADS[name]})


def test_replay_keeps_a_bad_word_letter_an_action_error():
    payload = {"target": "e3", "case": 0, "words": ["f", "f^x"]}
    with pytest.raises(action.ActionError, match="bad word letter 'f\\^x'"):
        replay("d-homomorphism", SuiteConfig(examples=("e3",)), payload)


def test_nontriviality_identity_germ(replays):
    identity = lambda induced_germ: lambda *args, **kwargs: Germ.identity()
    payload = replays("d-nontriviality", E1, patched(suites, "induced_germ", identity))
    assert payload["homeo"] == "u"


# ---------------------------------------------------------------------------
# Blow-up suites


def test_action_law_coset_fault(replays):
    config = replace(SMALL, examples=("e3-coset-fault",))
    payload = replays("alpha-action-law", config, undo=repaired("e3-coset-fault"))
    assert {"outer", "inner", "sample"} <= set(payload)


def test_action_law_fault_not_caught(replays):
    payload = replays("alpha-action-law", E1, repaired("e3-coset-fault"))
    assert payload["target"] == "e3-coset-fault" and payload["got"] is None


def test_stabilizer_phi_fault(replays):
    config = replace(SMALL, examples=("e3-phi-fault",))
    payload = replays("trivial-stabilizer", config, undo=repaired("e3-phi-fault"))
    assert payload == {"target": "e3-phi-fault", "fixing_word": "k"}


def test_stabilizer_fault_not_caught(replays):
    payload = replays("trivial-stabilizer", E1, repaired("e3-phi-fault"))
    assert payload["target"] == "e3-phi-fault" and payload["got"] is None


def test_stabilizer_phi_moves_endpoints(tmp_path):
    # a phi that moves 0 is bad input: the spec is rejected when it loads,
    # so no suite sees it (the claim's own fault is e3-phi-fault, above)
    paths = exported("e3", tmp_path)
    spec_path = paths["blowup_path"]
    spec = json.loads(Path(spec_path).read_text())
    spec["phi"]["k"] = serialize.plmap_to_data(PLMap.affine(1, F(1, 10)))
    Path(spec_path).write_text(json.dumps(spec))
    files = ["--leafspace", paths["leafspace_path"], "--action", paths["action_path"], "--blowup", spec_path]
    for command in ("blowup", "check-action", "check-stabilizer", "orbit-search"):
        result = CliRunner().invoke(main, [command, *files])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(f"{spec_path}: $.phi: phi['k'] does not fix 0 and 1\n")


# the search claims a word that carries the midpoint down, not over the ray
wrong_search = patched(
    suites, "positive_ray_orbit_search", lambda search: lambda *args: Word.parse("u^-1")
)


def test_orbit_limit_search_returns_wrong_word(replays):
    payload = replays("orbit-limit", E1, wrong_search)
    assert payload == {"target": "e1", "cut": "0", "word": "u^-1"}


def lifted_interval_images(move_keys):
    """A kernel that lifts every interval image by 10**7 along its branch."""

    def move(space, word, keys):
        images = move_keys(space, word, keys)
        return [key if len(key) == 3 else (key[0], key[1] + 10**7 * key[2], *key[2:]) for key in images]

    return move


def test_orbit_limit_lifted_twisted_action(replays):
    # the search reads the twisted action, so the fault lets it find a word
    # that the base action does not carry over the cut
    payload = replays("orbit-limit", E1, patched(blowup, "_move_keys", lifted_interval_images))
    assert payload == {"target": "e1", "cut": "0", "word": "1"}


def test_file_target_replays(replays, tmp_path):
    payload = replays("orbit-limit", replace(SMALL, **exported("e1", tmp_path)), wrong_search)
    assert payload == {"target": "file", "cut": "0", "word": "u^-1"}


def test_injectivity_trivial_generator(replays):
    def frozen_e1(b):
        return replace(b, generators={"u": Homeo({"r": "r"}, {"r": PLMap.identity()})})

    payload = replays("injectivity-certificate", E1, set_bundle("e1", frozen_e1))
    assert payload == {"target": "e1", "word": "u"}


# A sweep suite's replay checks the reported word or pair, not every word of
# its length: on e3, f k f f k f^-1 fixes the marked point outside K, and
# the blown germ of H is trivial (the two horizons), while f^6 and f^10 do
# not fail, and neither do the other words below of the same lengths.
H = "f f k f^-1 f^-1 k f k^-1 f^-1 k^-1"
E3 = replace(SMALL, examples=("e3",))


@pytest.mark.parametrize(
    "word, fails",
    [("f k f f k f^-1", True), ("f f f f f f", False), ("f^-1 k f f k f", False), ("k^6", False)],
)
def test_stabilizer_replays_the_reported_word(word, fails):
    assert replay("trivial-stabilizer", E3, {"target": "e3", "fixing_word": word}) is fails


@pytest.mark.parametrize(
    "word, fails",
    [(H, True), ("f^10", False), (" ".join(reversed(H.split())), False), ("1", False)],
)
def test_injectivity_replays_the_reported_word(word, fails):
    assert replay("injectivity-certificate", E3, {"target": "e3", "word": word}) is fails


def test_injectivity_replay_of_a_long_word_is_one_word():
    word = random_reduced_word(("f", "k"), 20, seed=0)
    assert len(word) == 20
    started = time.process_time()
    assert not replay("injectivity-certificate", E3, {"target": "e3", "word": str(word)})
    assert time.process_time() - started < 0.1


# e3-coset-fault's first violation on the default samples, and other pairs
# at its sample: the lengths match, the verdicts do not
@pytest.mark.parametrize(
    "outer, inner, fails",
    [
        ("f^-1 k^-1", "f", True),
        ("k k", "k k", False),
        ("f^-1 k", "f", False),
        ("f f", "f", False),
        ("f^-1 k^-1", "k", False),
        ("1", "1", False),
    ],
)
def test_action_law_replays_the_reported_pair(outer, inner, fails):
    config = replace(SMALL, examples=("e3-coset-fault",))
    sample = {"point": {"branch": "b1", "coord": "-2/5"}, "height": "1/2"}
    payload = {"target": "e3-coset-fault", "outer": outer, "inner": inner, "sample": sample}
    assert replay("alpha-action-law", config, payload) is fails


def test_action_law_reports_the_pair_it_replays():
    report = run_suite("alpha-action-law", SuiteConfig(examples=("e3-coset-fault",)))
    sample = {"point": {"branch": "b1", "coord": "-2/5"}, "height": "1/2"}
    assert report.counterexample == {
        "target": "e3-coset-fault", "outer": "f^-1 k^-1", "inner": "f", "sample": sample,
    }


def test_action_law_identity_pass(replays):
    # an empty word's twist off the identity: the sweep's identity pass
    # reports the pair (1, 1), and law_violation checks it
    def moving(twist):
        return lambda self, h, g: Word.parse("k") if h.is_identity() else twist(self, h, g)

    payload = replays("alpha-action-law", E3, patched(blowup.StabilizerData, "twist", moving))
    assert payload["outer"] == payload["inner"] == "1"


# ---------------------------------------------------------------------------
# Structural suite


def test_structural_leafspace_roundtrip(replays):
    payload = replays(
        "structural", E1, patched(serialize, "emit_leafspace", non_idempotent)
    )
    assert payload["kind"] == "roundtrip" and payload["case"] == 0


def test_structural_action_roundtrip(replays):
    payload = replays("structural", E1, patched(serialize, "emit_action", non_idempotent))
    assert payload == {"kind": "roundtrip", "target": "e1"}


def test_structural_blowup_roundtrip(replays):
    payload = replays(
        "structural", E1, patched(serialize, "emit_blowup_spec", non_idempotent)
    )
    assert payload == {"kind": "roundtrip-blowup", "target": "e1"}


def test_structural_determinism(replays):
    nonce = itertools.count()
    stamped = lambda to_data: lambda config: {**to_data(config), "nonce": next(nonce)}
    payload = replays("structural", E1, patched(SuiteConfig, "to_data", stamped))
    assert payload == {"kind": "determinism"}


# ---------------------------------------------------------------------------
# Coverage


def test_every_suite_is_shown_to_fail():
    """The suites the ``replays(...)`` calls of this module name are the
    registered ones, so a new suite with no fault it catches fails here.  A
    suite name must be a literal."""
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    named = {
        ast.literal_eval(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "replays"
    }
    assert named == set(suites.SUITES)
