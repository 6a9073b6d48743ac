"""germkit benchmark driver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload and prints its end-to-end metrics;
``--trace 1`` runs it once untraced and once with every layer wrapped and
prints the per-layer metrics.  Detail (quartiles, sample counts, failures,
report digests, environment) comes first; the last line of stdout is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("germ-algebra", "induced-hom", "blowup-ball", "cli-files")
SETUP_STARTS = 25

SUITES = (
    "germ-group-axioms",
    "germ-quotient",
    "order-laws",
    "overlap-rays",
    "d-threshold-independence",
    "d-homomorphism",
    "d-nontriviality",
    "alpha-action-law",
    "trivial-stabilizer",
    "orbit-limit",
    "injectivity-certificate",
    "structural",
)


def summary(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count; ``None`` fields when a sample is
    missing or infinite (a failed query has no latency)."""
    if not values or not all(math.isfinite(v) for v in values):
        return {"median": None, "q1": None, "q3": None, "n": len(values), "unit": unit}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "unit": unit}


def tail(values: list[float], unit: str) -> dict:
    """The highest order statistic with ten samples beyond it, and its percentile."""
    n = len(values)
    if n < 11 or not all(math.isfinite(v) for v in values):
        return {"value": None, "percentile": None, "n": n, "unit": unit}
    rank = n - 10
    return {"value": sorted(values)[rank - 1], "percentile": 100 * rank / n, "n": n, "unit": unit}


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "germkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "germkit_commit": commit,
        "germkit_src_sha256": digest.hexdigest(),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Timed run


def timed(workload: str, seed: int, seconds: float, workdir: Path, wl) -> tuple[dict, dict, object]:
    from clock import SteadyClock

    gate = wl.Gate()
    queries_detail: dict = {}
    if workload == wl.CLI_WORKLOAD:
        files, steady = workdir / "files", workdir / "steady"
        wl.export_files(files)
        steady.mkdir()
        queries = wl.cli_queries(files, seed)
        launcher = wl.Launcher("query", steady)
        runs, walls = wl.measure(seconds, lambda: wl.cli_pass(queries, launcher, gate))
        # Only the query processes have been waited for so far.
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        latencies_ms = [1000 * latency for _, pass_latencies, _ in runs for latency in pass_latencies]
        queries_detail = {"query_p50_ms": summary(latencies_ms, "ms"), "query_tail_ms": tail(latencies_ms, "ms")}
    else:
        names, _ = wl.IN_PROCESS[workload]
        config = wl.suite_config(workload, seed)
        with SteadyClock() as clock:
            runs, walls = wl.measure(seconds, lambda: wl.suite_pass(names, config, gate, clock.read))
        rss = peak_rss_mb(resource.RUSAGE_SELF)
    setups = wl.setup_times(workload, seed, workdir, SETUP_STARTS, gate)
    verdicts = [run[0] for run in runs]
    detail = {
        "verdict_s": summary(verdicts, "s"),
        "verdict_wall_s": summary(walls, "s"),
        "setup_s": summary(setups, "s"),
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "fail_ratio": {"value": gate.fail_ratio, "failed": gate.failed, "attempted": gate.attempted},
        **queries_detail,
    }
    metrics = {
        "verdict_s": {"value": statistics.median(verdicts), "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, detail, gate


# ---------------------------------------------------------------------------
# Traced run


def layer_metrics(totals: dict, import_s: float, walls: dict[str, float], overhead_s: float) -> dict:
    from tracer import ACTION_FUNCTIONS

    calls, self_s = totals["calls"], totals["self_s"]
    out: dict[str, tuple[float, str]] = {
        "rationals.fraction_new": (totals["fraction_new"], "count"),
        "rationals.max_bits": (totals["max_bits"], "bits"),
    }

    def span(name: str, with_calls: bool = True, with_self: bool = True) -> None:
        if with_calls:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        if with_self:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in ("plmap.compose", "plmap.invert", "plmap.eval", "plmap.make", "germ.ops"):
        span(name)
    for name in ("leafspace.canonical", "leafspace.embedding", *(f"action.{f}" for f in ACTION_FUNCTIONS)):
        span(name)
    out["action.overlap_per_germ"] = (
        ratio(calls.get("action.overlap_ray", 0), calls.get("action.induced_germ", 0)),
        "ratio",
    )
    for name in ("blowup.alpha_apply", "blowup.twist", "blowup.phi_word", "blowup.blown_induced_germ"):
        span(name)
    span("blowup.orbit_expand", with_calls=False)
    span("blowup.word_homeo", with_self=False)
    word_homeo_calls = calls.get("blowup.word_homeo", 0)
    out["blowup.word_homeo.hit_ratio"] = (
        1 - ratio(totals["cache_misses"], word_homeo_calls) if word_homeo_calls else 0.0,
        "ratio",
    )
    for name in ("fuzz", "serialize.parse", "serialize.emit"):
        span(name, with_calls=False)
    out["cli.import_s"] = (import_s, "s")
    for suite in SUITES:
        out[f"suites.{suite}.wall_s"] = (walls.get(suite, 0.0), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def traced(workload: str, seed: int, workdir: Path, wl) -> tuple[dict, dict, object]:
    from tracer import Tracer, merge_totals

    gate = wl.Gate()
    if workload == wl.CLI_WORKLOAD:
        files, traces = workdir / "files", workdir / "traces"
        wl.export_files(files)
        traces.mkdir()
        queries = wl.cli_queries(files, seed)
        untraced_s, _, walls = wl.cli_pass(queries, wl.Launcher(), gate)
        traced_s, _, _ = wl.cli_pass(queries, wl.Launcher("traced", traces), gate)
        parts = [json.loads(p.read_text()) for p in sorted(traces.glob("*.json"))]
        totals = merge_totals(parts)
        spans = sum(part["spans"] for part in parts)
        import_s = statistics.median(part["import_s"] for part in parts) if parts else 0.0
    else:
        names, _ = wl.IN_PROCESS[workload]
        config = wl.suite_config(workload, seed)
        untraced_s, walls = wl.suite_pass(names, config, gate, time.perf_counter)
        tracer = Tracer()
        with tracer.installed():
            traced_s, _ = wl.suite_pass(names, config, gate, time.perf_counter)
        spans = tracer.flush()
        totals = tracer.totals()
        import_s = 0.0
    metrics = layer_metrics(totals, import_s, walls, traced_s - untraced_s)
    detail = {
        "untraced_verdict_s": untraced_s,
        "traced_verdict_s": traced_s,
        "spans": spans,
        "fail_ratio": {"value": gate.fail_ratio, "failed": gate.failed, "attempted": gate.attempted},
    }
    return metrics, detail, gate


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "germkit" / "__init__.py").is_file():
        print(f"error: no germkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import germkit
    import workloads as wl

    if not Path(germkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: germkit imported from {germkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail, gate = traced(args.workload, args.seed, workdir, wl)
        else:
            metrics, detail, gate = timed(args.workload, args.seed, args.seconds, workdir, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            WORK_DIR.rmdir()

    print(json.dumps({
        "environment": environment(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "detail": detail,
        "report_sha256": gate.digests,
        "failures": gate.failures,
    }, indent=1))
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
