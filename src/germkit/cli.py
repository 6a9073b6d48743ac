"""Command-line entry points.

One subcommand per verified claim plus plumbing.  Exit codes: 0 when every
check passes, 1 on a property violation (with a replayable counterexample in
the report), 2 on input errors.  ``--seed`` defaults to the ``GERMKIT_SEED``
environment variable.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import serialize
from .action import UnknownGeneratorError, Word, reduced_words, validate_homeo, word_germ
from .blowup import BlowupError, alpha_apply, positive_ray_orbit_search
from .examples import BUNDLED, STANDARD, Bundle, bundle
from .fuzz import CaseGen, FuzzBounds
from .germ import compare
from .leafspace import root_embedding
from .plmap import check as check_plmap
from .rationals import RationalFormatError, format_rational, parse_rational
from .suites import (
    Report,
    SuiteConfig,
    SuiteError,
    SUITES,
    resolve_targets,
    run_suite,
)

FAIL, INPUT_ERROR = 1, 2
INPUT_ERRORS = (
    serialize.SpecFormatError,
    SuiteError,
    BlowupError,
    RationalFormatError,
    UnknownGeneratorError,
    FileNotFoundError,
)


def _echo_report(report: Report) -> None:
    status = "PASS" if report.passed else "FAIL"
    click.echo(f"{status} {report.suite} (cases={report.cases}, {report.elapsed:.2f}s)")
    if not report.passed and report.counterexample is not None:
        click.echo(f"  counterexample: {json.dumps(report.counterexample)}")


def _write_reports(reports: list[Report], path: str | None) -> None:
    if path is None:
        return
    payload = json.dumps([r.to_data() for r in reports], indent=2) + "\n"
    Path(path).write_text(payload)


def _targets(config: SuiteConfig, need_blowup: bool = False) -> list[Bundle]:
    """Resolve the targets once; note non-canonical files before any output."""
    targets = resolve_targets(config, need_blowup)
    for target in targets:
        for path in target.noncanonical:
            click.echo(f"note: {path} is not canonical; re-serialization differs", err=True)
    return targets


def _run(names: list[str], config: SuiteConfig, report_path: str | None) -> None:
    targets = _targets(config)
    reports = []
    for name in names:
        report = run_suite(name, config, targets)
        _echo_report(report)
        reports.append(report)
    _write_reports(reports, report_path)
    if not all(r.passed for r in reports):
        sys.exit(FAIL)


_COUNT = click.IntRange(min=0)

_seed_option = click.option(
    "--seed", type=int, default=SuiteConfig.seed, envvar="GERMKIT_SEED", show_default=True
)
_cases_option = click.option("--cases", type=_COUNT, default=SuiteConfig.cases, show_default=True)
_report_option = click.option(
    "--report", "report_path", type=click.Path(dir_okay=False), default=None,
    help="Write canonical JSON reports here.",
)


def _with_targets(*default_examples: str):
    """Add ``--leafspace/--action/--blowup/--example``.  The command gets
    ``targets``, the :class:`SuiteConfig` fields they set; ``examples`` is
    ``default_examples`` when no ``--example`` is given, and ``--example``
    with a file option is an input error."""

    def decorate(fn):
        @click.option("--leafspace", "leafspace_path", type=click.Path(exists=True, dir_okay=False))
        @click.option("--action", "action_path", type=click.Path(exists=True, dir_okay=False))
        @click.option("--blowup", "blowup_path", type=click.Path(exists=True, dir_okay=False))
        @click.option(
            "--example",
            multiple=True,
            type=click.Choice(BUNDLED),
            help="Bundled example(s) to target instead of files.",
        )
        @functools.wraps(fn)
        def command(leafspace_path, action_path, blowup_path, example, **kwargs):
            if example and (leafspace_path or action_path or blowup_path):
                raise SuiteError("--example cannot be combined with file targets")
            targets = dict(
                leafspace_path=leafspace_path,
                action_path=action_path,
                blowup_path=blowup_path,
                examples=example or default_examples,
            )
            return fn(targets=targets, **kwargs)

        return command

    return decorate


class _Main(click.Group):
    """The ``germkit`` group: input errors from any subcommand print
    ``error: ...`` and exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(INPUT_ERROR)


@click.group(cls=_Main)
def main() -> None:
    """Exact property checks for germs at infinity of line homeomorphisms,
    branching leaf spaces, and blown-up group actions."""


@main.command("check-germ-group")
@_seed_option
@_cases_option
@_report_option
def check_germ_group(seed: int, cases: int, report_path: str | None) -> None:
    """Group axioms and representative-independence of the germ product."""
    config = SuiteConfig(seed=seed, cases=cases)
    _run(["germ-group-axioms", "germ-quotient"], config, report_path)


@main.command("order-compare")
@click.argument("lhs", required=False)
@click.argument("rhs", required=False)
@_seed_option
@_cases_option
@_report_option
def order_compare(lhs: str | None, rhs: str | None, seed: int, cases: int, report_path: str | None) -> None:
    """Compare two germs ('{"a":"2","b":"0"}') or run the order-law suite."""
    if (lhs is None) != (rhs is None):
        raise SuiteError("give two germs or none")
    if lhs is not None:
        click.echo(compare(serialize.parse_germ(lhs), serialize.parse_germ(rhs)).name)
        return
    _run(["order-laws"], SuiteConfig(seed=seed, cases=cases), report_path)


@main.command("compute-d")
@_with_targets("e1")
@click.option("--word", "words", multiple=True, help="Word over the generators, e.g. 'f g^-1'.")
@_seed_option
def compute_d(targets: dict, words: tuple[str, ...], seed: int) -> None:
    """Evaluate the induced germ of words (default: each generator)."""
    wordlist = [serialize.word_from_text(w, "--word") for w in words]
    for target in _targets(SuiteConfig(seed=seed, **targets)):
        e, letter_germs = root_embedding(target.space), {}
        for w in wordlist or [Word(((n, 1),)) for n in sorted(target.generators)]:
            germ = word_germ(target.space, target.generators, w, e, letter_germs)
            click.echo(f"{target.name}\t{w}\t{json.dumps(serialize.germ_to_data(germ))}")


@main.command("check-hom")
@_with_targets(*STANDARD)
@_seed_option
@_cases_option
@click.option("--max-word-length", type=_COUNT, default=SuiteConfig.max_word_length, show_default=True)
@_report_option
def check_hom(
    targets: dict, seed: int, cases: int, max_word_length: int, report_path: str | None
) -> None:
    """Overlap rays, threshold independence, multiplicativity, nontriviality."""
    config = SuiteConfig(seed=seed, cases=cases, max_word_length=max_word_length, **targets)
    _run(
        ["overlap-rays", "d-threshold-independence", "d-homomorphism", "d-nontriviality"],
        config,
        report_path,
    )


@main.command("blowup")
@_with_targets("e1", "e3")
@_seed_option
def blowup_cmd(targets: dict, seed: int) -> None:
    """Build the blow-up and describe the orbit and classification."""
    for target in _targets(SuiteConfig(seed=seed, **targets), need_blowup=True):
        space = target.blowup
        same = space.classify() is target.space.classify()
        click.echo(
            f"{target.name}\torbit={len(space.orbit)}\tdepth={space.depth}\t"
            f"classification={space.classify().value}\tpreserved={same}"
        )
        if not same:
            sys.exit(FAIL)


@main.command("check-action")
@_with_targets("e1", "e3")
@_seed_option
@click.option("--ball", type=_COUNT, default=SuiteConfig.word_ball, show_default=True)
@click.option("--plain-samples", type=_COUNT, default=SuiteConfig.plain_samples, show_default=True)
@click.option(
    "--interval-samples", type=_COUNT, default=SuiteConfig.interval_samples, show_default=True
)
@_report_option
def check_action(
    targets: dict,
    seed: int,
    ball: int,
    plain_samples: int,
    interval_samples: int,
    report_path: str | None,
) -> None:
    """Action law of the twisted action, plus orbit-limit soundness."""
    config = SuiteConfig(
        seed=seed,
        word_ball=ball,
        plain_samples=plain_samples,
        interval_samples=interval_samples,
        **targets,
    )
    _run(["alpha-action-law", "orbit-limit"], config, report_path)


@main.command("check-stabilizer")
@_with_targets("e3")
@_seed_option
@click.option("--ball", type=_COUNT, default=SuiteConfig.stabilizer_ball, show_default=True)
@click.option("--certify/--no-certify", default=True, show_default=True,
              help="Also require nontrivial blown germs on the ball.")
@_report_option
def check_stabilizer(
    targets: dict, seed: int, ball: int, certify: bool, report_path: str | None
) -> None:
    """Trivial stabilizer of the marked midpoint on the word ball."""
    config = SuiteConfig(seed=seed, stabilizer_ball=ball, **targets)
    names = ["trivial-stabilizer"]
    if certify:
        names.append("injectivity-certificate")
    _run(names, config, report_path)


@main.command("orbit-search")
@_with_targets("e1")
@click.option("--n", "cut", default="0", show_default=True, help="Lower end of the target ray.")
@click.option("--ball", type=_COUNT, default=8, show_default=True)
@_seed_option
def orbit_search(targets: dict, cut: str, ball: int, seed: int) -> None:
    """Search the word ball for an orbit point over the ray (n, +oo)."""
    n = parse_rational(cut)
    for target in _targets(SuiteConfig(seed=seed, **targets), need_blowup=True):
        space = target.blowup
        e = root_embedding(target.space)
        found = positive_ray_orbit_search(space, e, n, min(ball, space.depth))
        if found is None:
            click.echo(f"{target.name}\texhausted (ball {min(ball, space.depth)})")
        else:
            image = alpha_apply(space, found, space.midpoint())
            click.echo(f"{target.name}\t{found}\tover {format_rational(image.point.coord)}")


@main.command("fuzz")
@click.option("--kind", type=click.Choice(["plmap", "word", "homeo", "leafspace"]), default="plmap", show_default=True)
@click.option("--count", type=_COUNT, default=10, show_default=True)
@click.option("--max-breakpoints", type=_COUNT, default=5, show_default=True)
@click.option("--max-denominator", type=click.IntRange(min=1), default=100, show_default=True)
@_seed_option
def fuzz_cmd(kind: str, count: int, max_breakpoints: int, max_denominator: int, seed: int) -> None:
    """Emit a deterministic stream of valid random objects as JSON lines."""
    bounds = FuzzBounds(max_breakpoints=max_breakpoints, max_denominator=max_denominator)
    gen = CaseGen(seed, bounds)
    for _ in range(count):
        if kind == "plmap":
            f = gen.plmap()
            assert check_plmap(f) is None
            click.echo(json.dumps(serialize.plmap_to_data(f)))
        elif kind == "word":
            w = gen.word(["f", "k"])
            click.echo(json.dumps({"word": str(w)}))
        elif kind == "leafspace":
            space = gen.leafspace()
            click.echo(json.dumps(serialize.leafspace_to_data(space)))
        else:
            space = bundle("e3").space
            h = gen.homeo(space)
            assert validate_homeo(space, h) is None
            click.echo(
                json.dumps(
                    {
                        "branch_map": dict(h.branch_map),
                        "branch_pl": {
                            b: serialize.plmap_to_data(pl) for b, pl in sorted(h.branch_pl.items())
                        },
                    }
                )
            )


@main.command("emit-plot")
@_with_targets()
@click.option("--what", type=click.Choice(["germ-tails", "orbit"]), default="germ-tails", show_default=True)
@click.option("--ball", type=_COUNT, default=4, show_default=True)
@_seed_option
def emit_plot(targets: dict, what: str, ball: int, seed: int) -> None:
    """Tabular data (TSV) for external plotting: germ tails or orbit coordinates.

    Default targets: e1 for germ tails, e1 and e3 for the orbit."""
    targets["examples"] = targets["examples"] or (("e1",) if what == "germ-tails" else ("e1", "e3"))
    resolved = _targets(SuiteConfig(seed=seed, **targets), need_blowup=what == "orbit")
    if what == "germ-tails":
        click.echo("target\tword\tlength\tslope\toffset")
        for target in resolved:
            e, letter_germs = root_embedding(target.space), {}
            for w in reduced_words(sorted(target.generators), ball):
                germ = word_germ(target.space, target.generators, w, e, letter_germs)
                click.echo(
                    f"{target.name}\t{w}\t{len(w)}\t"
                    f"{format_rational(germ.slope)}\t{format_rational(germ.offset)}"
                )
    else:
        click.echo("target\tword\tbranch\tcoord")
        for target in resolved:
            rows = sorted(target.blowup.orbit.items(), key=lambda kv: (len(kv[1]), str(kv[1])))
            for point, w in rows:
                click.echo(f"{target.name}\t{w}\t{point.branch}\t{format_rational(point.coord)}")


@main.command("suite")
@click.argument("name", type=click.Choice(sorted(SUITES)))
@_with_targets(*STANDARD)
@_seed_option
@_cases_option
@click.option(
    "--auto-extend", type=_COUNT, default=0, show_default=True,
    help="Create up to this many branches named by the action but missing "
         "from the leaf-space file (0 rejects incomplete actions).",
)
@_report_option
def suite_cmd(
    name: str, targets: dict, seed: int, cases: int, auto_extend: int, report_path: str | None
) -> None:
    """Run any single suite by name."""
    config = SuiteConfig(seed=seed, cases=cases, auto_extend=auto_extend, **targets)
    _run([name], config, report_path)


@main.group()
def examples() -> None:
    """Inspect or export the bundled examples."""


@examples.command("list")
def examples_list() -> None:
    for name in BUNDLED:
        b = bundle(name)
        blow = "with blow-up data" if b.marked is not None else "action only"
        click.echo(f"{name}\tbranches={len(b.space.branches)}\t{blow}")


@examples.command("export")
@click.argument("directory", type=click.Path(file_okay=False))
@click.option("--name", "names", multiple=True, type=click.Choice(BUNDLED))
def examples_export(directory: str, names: tuple[str, ...]) -> None:
    """Write canonical leaf-space/action/blow-up files for bundled examples."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name in names or BUNDLED:
        b = bundle(name)
        (out / f"{name}.leafspace.json").write_text(serialize.emit_leafspace(b.space))
        (out / f"{name}.action.json").write_text(serialize.emit_action(b.generators))
        if b.marked is not None:
            (out / f"{name}.blowup.json").write_text(
                serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball)
            )
        click.echo(f"wrote {name}")


if __name__ == "__main__":
    main()
