"""The benchmark's child processes.

Usage:
    python3 perfbench/child.py OUT setup WORKLOAD SEED DIR
    python3 perfbench/child.py OUT query ARGS...
    python3 perfbench/child.py OUT traced ARGS...

``setup`` is one fresh start: import germkit and ``germkit.cli`` and resolve
the workload's targets (for ``cli-files``, export the canonical files into
DIR first).  ``query`` runs one ``germkit ARGS...`` command.  Both run under
the steady clock and write the wall and steady seconds of their work to OUT
as JSON, so the caller can scale the whole process's wall time to the
reference speed of ``clock.py``.  ``traced`` times the import of
``germkit.cli``, runs the command with every layer wrapped, and writes the
tracer's totals to OUT.  The exit code is the command's.
"""

import json
import sys
import time
from pathlib import Path


def run_cli(args: list[str]) -> int:
    import germkit.cli

    try:
        germkit.cli.main(args, prog_name="germkit")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def setup(workload: str, seed: str, directory: str) -> int:
    import germkit  # noqa: F401
    import germkit.cli  # noqa: F401

    import workloads

    return 0 if workloads.resolve(workload, int(seed), Path(directory)) else 1


def traced(out: Path, args: list[str]) -> int:
    start = time.perf_counter()
    import germkit.cli  # noqa: F401

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        code = run_cli(args)
    spans = tracer.flush()
    out.write_text(json.dumps({"import_s": import_s, "spans": spans, **tracer.totals()}))
    return code


def steady(out: Path, work) -> int:
    from clock import CHILD_PERIOD_S, SteadyClock

    with SteadyClock(CHILD_PERIOD_S) as clock:
        wall, steady_s = time.perf_counter(), clock.read()
        code = work()
        steady_s = clock.read() - steady_s
        wall = time.perf_counter() - wall
    out.write_text(json.dumps({"wall_s": wall, "steady_s": steady_s}))
    return code


def main() -> int:
    out, mode, args = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    if mode == "traced":
        return traced(out, args)
    if mode == "setup":
        return steady(out, lambda: setup(*args))
    if mode == "query":
        return steady(out, lambda: run_cli(args))
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
