"""The benchmark's span tracer finds every name it wraps and undoes its patches.

``perfbench/tracer.py`` wraps germkit functions and methods by name, so
renaming one of them must fail here, not only in the benchmark.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germkit import blowup
from germkit.action import Word
from germkit.blowup import BlowupSpace
from germkit.examples import bundle
from germkit.leafspace import root_embedding
from germkit.suites import SuiteConfig, run_suite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def germkit_bindings() -> dict:
    """Every name bound in a germkit module or in a class it defines."""
    bindings = {("Fraction", "__new__"): Fraction.__dict__["__new__"]}
    for name, module in list(sys.modules.items()):
        if name != "germkit" and not name.startswith("germkit."):
            continue
        for key, value in vars(module).items():
            bindings[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    bindings[(name, key, attr)] = raw
    return bindings


def test_tracer_wraps_live_names_and_restores_them():
    tracer = load_tracer().Tracer()
    import germkit.cli  # noqa: F401  (installing imports it; bind it before the snapshot)

    before = germkit_bindings()
    with tracer.installed():
        assert germkit_bindings() != before
        report = run_suite(
            "injectivity-certificate", SuiteConfig(examples=("e1",), stabilizer_ball=2)
        )
        # the certificate conjugates base germs itself, so call the wrapped name
        b = bundle("e1")
        space = BlowupSpace(b.space, b.generators, b.marked, b.depth, b.stabilizer)
        blowup.blown_induced_germ(space, Word.parse("u"), root_embedding(b.space))
    tracer.flush()
    assert report.passed
    assert tracer.calls["blowup.blown_induced_germ"] > 0
    assert tracer.calls["action.induced_germ"] > 0
    after = germkit_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize(
    "suite, spans",
    [
        ("d-threshold-independence", ("overlap_ray", "induced_germ")),
        ("d-homomorphism", ("word_germ", "word_homeo", "induced_germ")),
    ],
)
def test_tracer_counts_the_germ_route(suite, spans):
    tracer = load_tracer().Tracer()
    import germkit.cli  # noqa: F401

    before = germkit_bindings()
    with tracer.installed():
        report = run_suite(suite, SuiteConfig(examples=("e1", "e3"), cases=4, max_word_length=3))
    tracer.flush()
    assert report.passed
    for name in spans:
        assert tracer.calls.get(f"action.{name}", 0) > 0, name
    after = germkit_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
