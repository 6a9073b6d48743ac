"""Command-line entry points.

One subcommand per verified claim plus plumbing.  Exit codes: 0 when every
check passes, 1 on a property violation (with a replayable counterexample in
the report), 2 on input errors.  ``--seed`` defaults to the ``GERMKIT_SEED``
environment variable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import serialize
from .action import Word, reduced_words, word_germ
from .blowup import BlowupError, alpha_apply, positive_ray_orbit_search
from .examples import BUNDLED, STANDARD, bundle
from .fuzz import CaseGen, FuzzBounds
from .germ import compare
from .leafspace import root_embedding
from .rationals import RationalFormatError, format_rational, parse_rational
from .suites import (
    Report,
    SuiteConfig,
    SuiteError,
    SUITES,
    build_blowup_target,
    resolve_targets,
    run_suite,
)

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _echo_report(report: Report) -> None:
    status = "PASS" if report.passed else "FAIL"
    click.echo(f"{status} {report.suite} (cases={report.cases}, {report.elapsed:.2f}s)")
    if not report.passed and report.counterexample is not None:
        click.echo(f"  counterexample: {json.dumps(report.counterexample)}")


def _write_reports(reports: list[Report], path: str | None) -> None:
    if path is None:
        return
    payload = json.dumps([r.to_data(include_timings=False) for r in reports], indent=2) + "\n"
    Path(path).write_text(payload)


def _warn_noncanonical(config: SuiteConfig) -> None:
    pairs = [
        (config.leafspace_path, "leafspace"),
        (config.action_path, "action"),
        (config.blowup_path, "blowup"),
    ]
    for path, kind in pairs:
        if path is None:
            continue
        text = Path(path).read_text()
        if not serialize.is_canonical(text, kind):
            click.echo(f"note: {path} is not canonical; re-serialization differs", err=True)


def _run(names: list[str], config: SuiteConfig, report_path: str | None) -> None:
    reports = []
    try:
        _warn_noncanonical(config)
        for name in names:
            report = run_suite(name, config)
            _echo_report(report)
            reports.append(report)
    except (SuiteError, serialize.SpecFormatError, FileNotFoundError, BlowupError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR)
    _write_reports(reports, report_path)
    sys.exit(PASS if all(r.passed for r in reports) else FAIL)


def _config(**kwargs) -> SuiteConfig:
    examples = kwargs.pop("example", None) or STANDARD
    return SuiteConfig(examples=tuple(examples), **kwargs)


_seed_option = click.option(
    "--seed", type=int, default=0, envvar="GERMKIT_SEED", show_default=True
)
_cases_option = click.option("--cases", type=int, default=500, show_default=True)
_report_option = click.option(
    "--report", "report_path", type=click.Path(dir_okay=False), default=None,
    help="Write canonical JSON reports here.",
)
_target_options = [
    click.option("--leafspace", "leafspace_path", type=click.Path(exists=True, dir_okay=False)),
    click.option("--action", "action_path", type=click.Path(exists=True, dir_okay=False)),
    click.option("--blowup", "blowup_path", type=click.Path(exists=True, dir_okay=False)),
    click.option(
        "--example",
        multiple=True,
        type=click.Choice(BUNDLED),
        help="Bundled example(s) to target instead of files.",
    ),
]


def _with_target_options(fn):
    for deco in reversed(_target_options):
        fn = deco(fn)
    return fn


@click.group()
def main() -> None:
    """Exact property checks for germs at infinity of line homeomorphisms,
    branching leaf spaces, and blown-up group actions."""


@main.command("check-germ-group")
@_seed_option
@_cases_option
@_report_option
def check_germ_group(seed: int, cases: int, report_path: str | None) -> None:
    """Group axioms and representative-independence of the germ product."""
    config = _config(seed=seed, cases=cases)
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
        click.echo("error: give two germs or none", err=True)
        sys.exit(INPUT_ERROR)
    if lhs is not None:
        try:
            u = serialize.germ_from_data(json.loads(lhs))
            v = serialize.germ_from_data(json.loads(rhs))
        except (serialize.SpecFormatError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(INPUT_ERROR)
        click.echo(compare(u, v).name)
        sys.exit(PASS)
    _run(["order-laws"], _config(seed=seed, cases=cases), report_path)


@main.command("compute-d")
@_with_target_options
@click.option("--word", "words", multiple=True, help="Word over the generators, e.g. 'f g^-1'.")
@_seed_option
def compute_d(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    words: tuple[str, ...],
    seed: int,
) -> None:
    """Evaluate the induced germ of words (default: each generator)."""
    config = _config(
        seed=seed,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example or ("e1",),
    )
    try:
        targets = resolve_targets(config)
        for target in targets:
            e = root_embedding(target.space)
            wordlist = (
                [Word.parse(w) for w in words]
                if words
                else [Word(((n, 1),)) for n in sorted(target.generators)]
            )
            for w in wordlist:
                germ = word_germ(target.space, target.generators, w, e)
                click.echo(
                    f"{target.name}\t{w}\t{json.dumps(serialize.germ_to_data(germ))}"
                )
    except (serialize.SpecFormatError, SuiteError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR)
    sys.exit(PASS)


@main.command("check-hom")
@_with_target_options
@_seed_option
@_cases_option
@click.option("--max-word-length", type=int, default=8, show_default=True)
@_report_option
def check_hom(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    seed: int,
    cases: int,
    max_word_length: int,
    report_path: str | None,
) -> None:
    """Overlap rays, threshold independence, multiplicativity, nontriviality."""
    config = _config(
        seed=seed,
        cases=cases,
        max_word_length=max_word_length,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example,
    )
    _run(
        ["overlap-rays", "d-threshold-independence", "d-homomorphism", "d-nontriviality"],
        config,
        report_path,
    )


@main.command("blowup")
@_with_target_options
@_seed_option
def blowup_cmd(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    seed: int,
) -> None:
    """Build the blow-up and describe the orbit and classification."""
    config = _config(
        seed=seed,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example or ("e1", "e3"),
    )
    try:
        targets = resolve_targets(config, need_blowup=True)
        for target in targets:
            space, _ = build_blowup_target(target)
            same = space.classify() is target.space.classify()
            click.echo(
                f"{target.name}\torbit={len(space.orbit)}\tdepth={space.depth}\t"
                f"classification={space.classify().value}\tpreserved={same}"
            )
            if not same:
                sys.exit(FAIL)
    except (serialize.SpecFormatError, SuiteError, BlowupError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR)
    sys.exit(PASS)


@main.command("check-action")
@_with_target_options
@_seed_option
@click.option("--ball", type=int, default=4, show_default=True)
@click.option("--plain-samples", type=int, default=100, show_default=True)
@click.option("--interval-samples", type=int, default=20, show_default=True)
@_report_option
def check_action(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    seed: int,
    ball: int,
    plain_samples: int,
    interval_samples: int,
    report_path: str | None,
) -> None:
    """Action law of the twisted action, plus orbit-limit soundness."""
    config = _config(
        seed=seed,
        word_ball=ball,
        plain_samples=plain_samples,
        interval_samples=interval_samples,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example or ("e1", "e3"),
    )
    _run(["alpha-action-law", "orbit-limit"], config, report_path)


@main.command("check-stabilizer")
@_with_target_options
@_seed_option
@click.option("--ball", type=int, default=5, show_default=True)
@click.option("--certify/--no-certify", default=True, show_default=True,
              help="Also require nontrivial blown germs on the ball.")
@_report_option
def check_stabilizer(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    seed: int,
    ball: int,
    certify: bool,
    report_path: str | None,
) -> None:
    """Trivial stabilizer of the marked midpoint on the word ball."""
    config = _config(
        seed=seed,
        stabilizer_ball=ball,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example or ("e3",),
    )
    names = ["trivial-stabilizer"]
    if certify:
        names.append("injectivity-certificate")
    _run(names, config, report_path)


@main.command("orbit-search")
@_with_target_options
@click.option("--n", "cut", default="0", show_default=True, help="Lower end of the target ray.")
@click.option("--ball", type=int, default=8, show_default=True)
@_seed_option
def orbit_search(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    cut: str,
    ball: int,
    seed: int,
) -> None:
    """Search the word ball for an orbit point over the ray (n, +oo)."""
    config = _config(
        seed=seed,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example or ("e1",),
    )
    try:
        n = parse_rational(cut)
        for target in resolve_targets(config, need_blowup=True):
            space, stab = build_blowup_target(target)
            e = root_embedding(target.space)
            found = positive_ray_orbit_search(space, stab, e, n, min(ball, space.depth))
            if found is None:
                click.echo(f"{target.name}\texhausted (ball {min(ball, space.depth)})")
            else:
                image = alpha_apply(space, stab, found, space.midpoint())
                click.echo(
                    f"{target.name}\t{found}\tover {format_rational(image.point.coord)}"
                )
    except (serialize.SpecFormatError, SuiteError, BlowupError, RationalFormatError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR)
    sys.exit(PASS)


@main.command("fuzz")
@click.option("--kind", type=click.Choice(["plmap", "word", "homeo", "leafspace"]), default="plmap", show_default=True)
@click.option("--count", type=int, default=10, show_default=True)
@click.option("--max-breakpoints", type=int, default=5, show_default=True)
@click.option("--max-denominator", type=int, default=100, show_default=True)
@_seed_option
def fuzz_cmd(kind: str, count: int, max_breakpoints: int, max_denominator: int, seed: int) -> None:
    """Emit a deterministic stream of valid random objects as JSON lines."""
    bounds = FuzzBounds(max_breakpoints=max_breakpoints, max_denominator=max_denominator)
    gen = CaseGen(seed, bounds)
    from .action import validate_homeo
    from .plmap import check as check_plmap

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
    sys.exit(PASS)


@main.command("emit-plot")
@_with_target_options
@click.option("--what", type=click.Choice(["germ-tails", "orbit"]), default="germ-tails", show_default=True)
@click.option("--ball", type=int, default=4, show_default=True)
@_seed_option
def emit_plot(
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    what: str,
    ball: int,
    seed: int,
) -> None:
    """Tabular data (TSV) for external plotting: germ tails or orbit coordinates."""
    config = _config(
        seed=seed,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example or (("e1",) if what == "germ-tails" else ("e1", "e3")),
    )
    try:
        if what == "germ-tails":
            click.echo("target\tword\tlength\tslope\toffset")
            for target in resolve_targets(config):
                e = root_embedding(target.space)
                for w in reduced_words(sorted(target.generators), ball):
                    germ = word_germ(target.space, target.generators, w, e)
                    click.echo(
                        f"{target.name}\t{w}\t{len(w)}\t"
                        f"{format_rational(germ.slope)}\t{format_rational(germ.offset)}"
                    )
        else:
            click.echo("target\tword\tbranch\tcoord")
            for target in resolve_targets(config, need_blowup=True):
                space, _ = build_blowup_target(target)
                rows = sorted(
                    space.orbit.items(), key=lambda kv: (len(kv[1]), str(kv[1]))
                )
                for point, w in rows:
                    click.echo(
                        f"{target.name}\t{w}\t{point.branch}\t{format_rational(point.coord)}"
                    )
    except (serialize.SpecFormatError, SuiteError, BlowupError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(INPUT_ERROR)
    sys.exit(PASS)


@main.command("suite")
@click.argument("name", type=click.Choice(sorted(SUITES)))
@_with_target_options
@_seed_option
@_cases_option
@click.option(
    "--auto-extend", type=int, default=0, show_default=True,
    help="Create up to this many branches named by the action but missing "
         "from the leaf-space file (0 rejects incomplete actions).",
)
@_report_option
def suite_cmd(
    name: str,
    leafspace_path: str | None,
    action_path: str | None,
    blowup_path: str | None,
    example: tuple[str, ...],
    seed: int,
    cases: int,
    auto_extend: int,
    report_path: str | None,
) -> None:
    """Run any single suite by name."""
    config = _config(
        seed=seed,
        cases=cases,
        leafspace_path=leafspace_path,
        action_path=action_path,
        blowup_path=blowup_path,
        example=example,
        auto_extend=auto_extend,
    )
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
    sys.exit(PASS)


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
    sys.exit(PASS)


if __name__ == "__main__":
    main()
