"""The benchmark's workloads and the correctness gate they share.

Three workloads call :func:`germkit.suites.run_suite` in this process; the
fourth, ``cli-files``, runs one-shot ``germkit`` processes against files
written by ``germkit examples export``.  The workload seed reaches the
program only as ``SuiteConfig.seed`` (``--seed`` on the command line).

Import this module after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from germkit.suites import SuiteConfig, resolve_targets, run_suite

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Suite lists and the SuiteConfig fields each in-process workload sets
# besides the seed.  Why each workload exists is in README.md.
IN_PROCESS: dict[str, tuple[tuple[str, ...], dict]] = {
    "germ-algebra": (
        ("germ-group-axioms", "germ-quotient", "order-laws", "structural"),
        {"cases": 1000},
    ),
    "induced-hom": (
        ("overlap-rays", "d-threshold-independence", "d-homomorphism", "d-nontriviality"),
        {"examples": ("e1", "e2", "e3")},
    ),
    "blowup-ball": (
        ("alpha-action-law", "trivial-stabilizer", "orbit-limit", "injectivity-certificate"),
        {"examples": ("e1", "e3")},
    ),
}
CLI_WORKLOAD = "cli-files"
CLI_TARGETS = ("e1", "e3")

QUERY_TIMEOUT_S = 60
SETUP_TIMEOUT_S = 60
SUITE_LINE = re.compile(r"^(?:PASS|FAIL) (\S+) \(cases=\d+, ([0-9.]+)s\)$", re.MULTILINE)


def child_env() -> dict[str, str]:
    """Environment for child processes: germkit from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def suite_config(workload: str, seed: int) -> SuiteConfig:
    _, fields = IN_PROCESS[workload]
    return SuiteConfig(seed=seed, **fields)


class Gate:
    """Counts operations and failed ones.

    An operation fails when it raises, exits nonzero, reports
    ``passed == False``, or emits canonical bytes that differ from an
    earlier run of the same key (same seed and arguments) in this process.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, key: str, error: str | None, payload: bytes | None = None) -> bool:
        self.attempted += 1
        if error is None and payload is not None:
            digest = hashlib.sha256(payload).hexdigest()
            first = self.digests.setdefault(key, digest)
            if first != digest:
                error = f"canonical bytes differ between runs of one seed ({first[:12]} vs {digest[:12]})"
        if error is not None:
            self.failures.append(f"{key}: {error}")
        return error is None


def measure(seconds: float, once: Callable[[], tuple]) -> tuple[list[tuple], list[float]]:
    """Repeat ``once`` at least twice, and again while the next repeat is
    predicted to end within ``seconds`` of wall time; returns each repeat's
    result and wall seconds."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(once())
        now = time.perf_counter()
        walls.append(now - began)
        if len(results) >= 2 and now - start + walls[-1] > seconds:
            return results, walls


# ---------------------------------------------------------------------------
# In-process workloads


def suite_pass(
    names: tuple[str, ...], config: SuiteConfig, gate: Gate, clock: Callable[[], float]
) -> tuple[float, dict[str, float]]:
    """Run the suite list once: ``clock`` seconds from the first call to
    the last report, and each report's ``elapsed``."""
    walls: dict[str, float] = {}
    start = clock()
    for name in names:
        try:
            report = run_suite(name, config)
        except Exception as exc:  # a raising suite is a failed operation
            gate.record(name, f"raised {exc!r}")
            continue
        walls[name] = report.elapsed
        gate.record(name, None if report.passed else "passed == False", report.canonical_json().encode())
    return clock() - start, walls


# ---------------------------------------------------------------------------
# The cli-files workload


@dataclass(frozen=True)
class Query:
    key: str
    argv: tuple[str, ...]
    report: Path | None = None


def export_files(directory: Path) -> None:
    """Write the canonical files of the CLI targets with ``germkit examples export``."""
    import germkit.cli

    args = ["examples", "export", str(directory)]
    for name in CLI_TARGETS:
        args += ["--name", name]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            germkit.cli.main(args, prog_name="germkit")
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"germkit examples export exited {exc.code}") from None


def file_config(directory: Path, name: str, seed: int) -> SuiteConfig:
    return SuiteConfig(
        seed=seed,
        leafspace_path=str(directory / f"{name}.leafspace.json"),
        action_path=str(directory / f"{name}.action.json"),
        blowup_path=str(directory / f"{name}.blowup.json"),
    )


def cli_queries(directory: Path, seed: int) -> list[Query]:
    """One pass of one-shot queries, each expected to exit 0.  Suite
    queries are compared by their ``--report`` bytes, the others by stdout."""
    queries = []
    for name in CLI_TARGETS:
        config = file_config(directory, name, seed)
        plain = ("--leafspace", config.leafspace_path, "--action", config.action_path)
        blown = (*plain, "--blowup", config.blowup_path)
        common = ("--seed", str(seed))
        queries += [
            Query(f"{name}:compute-d", ("compute-d", *plain, *common)),
            Query(f"{name}:blowup", ("blowup", *blown, *common)),
            Query(f"{name}:orbit-search", ("orbit-search", *blown, "--n", "0", "--ball", "3", *common)),
            Query(f"{name}:emit-plot", ("emit-plot", *blown, "--what", "orbit", *common)),
        ]
        for suite, cases in (("overlap-rays", 20), ("d-threshold-independence", 10)):
            report = directory / f"{name}.{suite}.report.json"
            argv = ("suite", suite, *plain, "--cases", str(cases), *common, "--report", str(report))
            queries.append(Query(f"{name}:{suite}", argv, report))
    return queries


@dataclass(frozen=True)
class Launcher:
    """How a query's process starts: plain ``python -m germkit.cli`` when
    ``mode`` is None, else ``child.py`` in that mode writing to ``out_dir``."""

    mode: str | None = None
    out_dir: Path | None = None

    def argv(self, query: Query) -> tuple[list[str], Path | None]:
        if self.mode is None:
            return [sys.executable, "-m", "germkit.cli", *query.argv], None
        out = self.out_dir / f"{query.key.replace(':', '_')}.{self.mode}.json"
        return [sys.executable, str(BENCH_DIR / "child.py"), str(out), self.mode, *query.argv], out


def run_child(argv: list[str], timeout: float) -> tuple[subprocess.CompletedProcess | None, float]:
    """Run a child process to completion: the process (None if it timed
    out and was killed) and its wall seconds."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return proc, time.perf_counter() - start


def steady_seconds(wall: float, out: Path) -> float:
    """Scale a child's wall seconds by the steady/wall ratio it measured
    inside, over its work after interpreter start-up."""
    inside = json.loads(out.read_text())
    return wall * inside["steady_s"] / inside["wall_s"]


def run_query(query: Query, launcher: Launcher, gate: Gate) -> tuple[float, bool, str]:
    """Run one query: its latency (steady seconds in ``query`` mode, wall
    seconds otherwise), whether it passed the gate, and its stdout."""
    if query.report is not None:
        query.report.unlink(missing_ok=True)
    argv, out = launcher.argv(query)
    proc, latency = run_child(argv, QUERY_TIMEOUT_S)
    if proc is None:
        return latency, gate.record(query.key, f"no exit within {QUERY_TIMEOUT_S} s"), ""
    stdout = proc.stdout.decode(errors="replace")
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-200:]
        return latency, gate.record(query.key, f"exit code {proc.returncode}: {tail}"), stdout
    if launcher.mode == "query":
        latency = steady_seconds(latency, out)
    if query.report is not None and not query.report.is_file():
        return latency, gate.record(query.key, "no report written"), stdout
    payload = query.report.read_bytes() if query.report is not None else proc.stdout
    return latency, gate.record(query.key, None, payload), stdout


def cli_pass(
    queries: list[Query], launcher: Launcher, gate: Gate
) -> tuple[float, list[float], dict[str, float]]:
    """Run every query once, one at a time: the sum of their latencies, the
    latencies (inf for a failed query), and the suite times the CLI printed."""
    total = 0.0
    latencies = []
    walls: dict[str, float] = {}
    for query in queries:
        latency, ok, stdout = run_query(query, launcher, gate)
        total += latency
        latencies.append(latency if ok else float("inf"))
        for suite, seconds in SUITE_LINE.findall(stdout):
            walls[suite] = walls.get(suite, 0.0) + float(seconds)
    return total, latencies, walls


# ---------------------------------------------------------------------------
# Set-up


def resolve(workload: str, seed: int, directory: Path) -> list:
    """The work a fresh process does before its first operation."""
    if workload == CLI_WORKLOAD:
        export_files(directory)
        return [t for name in CLI_TARGETS for t in resolve_targets(file_config(directory, name, seed), True)]
    return resolve_targets(suite_config(workload, seed), need_blowup=workload == "blowup-ball")


def setup_times(workload: str, seed: int, workdir: Path, starts: int, gate: Gate) -> list[float]:
    """Steady seconds of ``starts`` fresh processes that import germkit and
    its CLI and resolve the workload's targets, after one untimed warm-up start."""
    times = []
    for k in range(starts + 1):
        out = workdir / f"setup-{k}.json"
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(out), "setup", workload, str(seed), str(workdir / f"setup-{k}")]
        proc, wall = run_child(argv, SETUP_TIMEOUT_S)
        if proc is None:
            gate.record("setup", f"no exit within {SETUP_TIMEOUT_S} s")
        elif proc.returncode != 0:
            gate.record("setup", f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}")
        elif gate.record("setup", None) and k:
            times.append(steady_seconds(wall, out))
    return times
