"""Check that the traced run's counts are exact.

Usage: python3 perfbench/check_counts.py --workload NAME [--seed N] [--held-out-seed M]

Makes two traced runs with ``--seed`` and one with ``--held-out-seed``, each
a fresh process, and exits 1 unless the two runs of one seed agree exactly
on every count: ``*.calls``, ``rationals.fraction_new``,
``rationals.max_bits``, ``blowup.word_homeo.hit_ratio`` and
``action.overlap_per_germ``.  Prints the counts of both seeds as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("rationals.fraction_new", "rationals.max_bits", "blowup.word_homeo.hit_ratio", "action.overlap_per_germ")


def counts(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} seed {seed} was not correct")
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(".calls") or name in EXACT
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--held-out-seed", type=int, default=1)
    args = parser.parse_args()
    first, second = counts(args.workload, args.seed), counts(args.workload, args.seed)
    held_out = counts(args.workload, args.held_out_seed)
    differing = sorted(name for name in first if first[name] != second.get(name))
    print(json.dumps({
        "workload": args.workload,
        "repeat_identical": not differing,
        "differing": differing,
        "counts": {str(args.seed): first, str(args.held_out_seed): held_out},
    }, indent=1))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
