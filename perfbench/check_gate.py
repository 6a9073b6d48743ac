"""Checks of the benchmark itself: its gate catches broken layers, its
counts repeat, and its metric names match BENCHMARK.json.

Run with: python3 -m pytest -q perfbench/check_gate.py

The file name keeps it out of the repository's default test collection,
because it runs benchmark passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

from germkit import suites  # noqa: E402
from germkit.germ import Germ  # noqa: E402
from germkit.plmap import PLMap  # noqa: E402


@pytest.fixture
def workdir():
    path = run.WORK_DIR / "check"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_broken_germ_product_fails_germ_algebra(monkeypatch, workdir):
    def wrong_mul(self, other):
        return Germ(self.slope * other.slope, other.slope * self.offset + other.offset)

    monkeypatch.setattr(Germ, "__mul__", wrong_mul)
    metrics, detail, gate = run.timed("germ-algebra", 0, 0, workdir, wl)
    assert detail["fail_ratio"]["value"] > 0
    assert any("passed == False" in failure for failure in gate.failures)


def test_cli_files_counts_nonzero_exit_as_failed(monkeypatch, workdir):
    export = wl.export_files

    def export_corrupt(directory):
        export(directory)
        (directory / "e1.action.json").write_text('{"generators": "not a list"}\n')

    monkeypatch.setattr(wl, "export_files", export_corrupt)
    metrics, detail, gate = run.timed("cli-files", 0, 0, workdir, wl)
    assert detail["fail_ratio"]["value"] > 0
    assert any(f.startswith("e1:") and "exit code 2" in f for f in gate.failures)
    assert not any(f.startswith("e3:") for f in gate.failures)


def test_report_bytes_must_repeat(monkeypatch):
    nonce = iter(range(1000))
    to_data = suites.SuiteConfig.to_data
    monkeypatch.setattr(suites.SuiteConfig, "to_data", lambda self: {**to_data(self), "nonce": next(nonce)})
    gate = wl.Gate()
    config = replace(wl.suite_config("germ-algebra", 0), cases=20)
    for _ in range(2):
        wl.suite_pass(("order-laws",), config, gate, time.perf_counter)
    assert gate.attempted == 2 and gate.failed == 1
    assert "differ between runs" in gate.failures[0]


def traced_totals(config) -> dict:
    tracer = Tracer()
    with tracer.installed():
        wl.suite_pass(("germ-group-axioms", "germ-quotient", "structural"), config, wl.Gate(), time.perf_counter)
    tracer.flush()
    totals = tracer.totals()
    del totals["self_s"]
    return totals


def test_traced_counts_repeat_and_tracer_uninstalls():
    originals = (PLMap.__dict__["__call__"], suites.word_homeo, Fraction.__dict__["__new__"])
    config = replace(wl.suite_config("germ-algebra", 3), cases=30)
    first, second = traced_totals(config), traced_totals(config)
    assert first == second
    assert first["calls"]["plmap.compose"] > 0 and first["fraction_new"] > 0
    assert (PLMap.__dict__["__call__"], suites.word_homeo, Fraction.__dict__["__new__"]) == originals


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == [*wl.IN_PROCESS, wl.CLI_WORKLOAD]
    empty = {"calls": {}, "self_s": {}, "fraction_new": 0, "max_bits": 0, "cache_misses": 0}
    layer = run.layer_metrics(empty, 0.0, {}, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in layer.values()]
    assert set(run.SUITES) == set(suites.SUITES)


def test_exits_nonzero_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "germ-algebra", "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
