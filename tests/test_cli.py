import collections
import hashlib
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from germkit.action import Homeo, identity_homeo
from germkit.blowup import BlowupSpace, CosetTableError, StabilizerGeneratorError
from germkit.cli import main
from germkit import action, blowup, serialize, suites
from germkit.examples import bundle
from germkit.fuzz import CaseGen
from germkit.leafspace import LeafSpace, Point, Side
from germkit.plmap import PLMap, reflect
from germkit.suites import SuiteConfig, SuiteError, resolve_targets
from support import calls_everywhere, record_of

README = Path(__file__).resolve().parent.parent / "README.md"

TARGET_COMMANDS = [
    ["compute-d"],
    ["check-hom", "--cases", "5"],
    ["blowup"],
    ["check-action", "--ball", "1"],
    ["check-stabilizer", "--ball", "1"],
    ["orbit-search", "--ball", "1"],
    ["emit-plot", "--what", "germ-tails", "--ball", "1"],
    ["emit-plot", "--what", "orbit"],
    ["suite", "overlap-rays", "--cases", "5"],
]


# (leaf space, action, blow-up spec, JSON path the load check must name)
BAD_TARGETS = {
    "e1-space-e3-action": ("e1", "e3", "e3", "$.generators[0]"),
    "undeclared-marked-branch": ("e3", "e3", "nope", "$.marked.branch"),
    "undeclared-stabilizer-letter": ("e3", "e3", "zz", "$.K_generators[0]"),
    "stabilizer-letter-moves-marked": ("e3", "e3", "moves", "$.K_generators[0]"),
    "coset-word-power-sugar": ("e3", "e3", "sugar", "$.coset_table[0].word"),
    "coset-word-unreduced": ("e3", "e3", "unreduced", "$.coset_table[0].word"),
    "coset-word-twice": ("e3", "e3", "twice", "$.coset_table[1].word"),
    "coset-word-undeclared-letter": ("e3", "e3", "foreign", "$.coset_table[1].word"),
    "coset-rep-outside-coset": ("e3", "e3", "outside", "$.coset_table[0].rep"),
    "generator-named-like-the-empty-word": ("e3", "named-1", "e3", "$.generators[1].name"),
    "generator-name-with-a-space": ("e3", "named-a-b", "e3", "$.generators[1].name"),
    "non-ascii-digit-coordinate": ("e3", "e3", "arabic", "$.marked.coord"),
    "whitespace-padded-coordinate": ("e3", "e3", "padded", "$.marked.coord"),
    "chart-maps-miss-a-branch": ("e3", "no-b2-chart", "e3", "$.generators[0]"),
    "coordinate-past-the-digit-limit": ("e3", "e3", "long-coord", "$.marked.coord"),
    "depth-past-the-digit-limit": ("e3", "e3", "long-depth", "$"),
}

# generator names that are not word letters, each given to e3's second generator
BAD_GENERATOR_NAMES = {"named-1": "1", "named-a-b": "a b"}

# coset_table rows for e3's spec, each set with one row the load must reject
BAD_COSET_TABLES = {
    "sugar": [{"word": "f^1", "rep": "f k"}],
    "unreduced": [{"word": "f k k^-1", "rep": "f k"}],
    "twice": [{"word": "f", "rep": "f k"}, {"word": "f", "rep": "f"}],
    "foreign": [{"word": "f", "rep": "f k"}, {"word": "f zz", "rep": "f zz k"}],
    "outside": [{"word": "f", "rep": "k"}],
}


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    """Exported bundles plus e3 specs that parse alone but do not fit e3."""
    d = tmp_path_factory.mktemp("bad")
    assert CliRunner().invoke(main, ["examples", "export", str(d)]).exit_code == 0
    spec = json.loads((d / "e3.blowup.json").read_text())
    nope = dict(spec, marked=dict(spec["marked"], branch="nope"))
    (d / "nope.blowup.json").write_text(json.dumps(nope))
    zz = dict(spec, K_generators=["zz"], phi={"zz": spec["phi"]["k"]})
    (d / "zz.blowup.json").write_text(json.dumps(zz))
    moves = dict(spec, K_generators=["f"], phi={"f": spec["phi"]["k"]})
    (d / "moves.blowup.json").write_text(json.dumps(moves))
    for name, rows in BAD_COSET_TABLES.items():
        (d / f"{name}.blowup.json").write_text(json.dumps(dict(spec, coset_table=rows)))
    # "-\u0661" is "-1" in Arabic-Indic digits, which no rational may use
    arabic = dict(spec, marked=dict(spec["marked"], coord="-\u0661"))
    (d / "arabic.blowup.json").write_text(json.dumps(arabic))
    # "-1" with a no-break space before it and a newline after it
    padded = dict(spec, marked=dict(spec["marked"], coord="\xa0-1\n"))
    (d / "padded.blowup.json").write_text(json.dumps(padded))
    # 5,000 digits: past the interpreter's integer string limit
    long_coord = dict(spec, marked=dict(spec["marked"], coord="1" * 5000))
    (d / "long-coord.blowup.json").write_text(json.dumps(long_coord))
    long_depth = json.dumps(spec).replace(f'"depth": {spec["depth"]}', '"depth": ' + "1" * 5000)
    (d / "long-depth.blowup.json").write_text(long_depth)
    action = json.loads((d / "e3.action.json").read_text())
    for file, name in BAD_GENERATOR_NAMES.items():
        rows = [action["generators"][0], dict(action["generators"][1], name=name)]
        (d / f"{file}.action.json").write_text(json.dumps(dict(action, generators=rows)))
    (d / "no-b2-chart.action.json").write_text(json.dumps(without_b2_chart(action)))
    return d


def without_b2_chart(action):
    """e3's action data with b2 dropped from its first generator's charts."""
    first = action["generators"][0]
    charts = {b: pl for b, pl in first["branch_pl"].items() if b != "b2"}
    return dict(action, generators=[dict(first, branch_pl=charts), *action["generators"][1:]])


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Canonical files of every bundled example."""
    d = tmp_path_factory.mktemp("exported")
    assert CliRunner().invoke(main, ["examples", "export", str(d)]).exit_code == 0
    return d


def file_args(directory, name, blowup=True):
    args = [
        "--leafspace", str(directory / f"{name}.leafspace.json"),
        "--action", str(directory / f"{name}.action.json"),
    ]
    return [*args, "--blowup", str(directory / f"{name}.blowup.json")] if blowup else args


@pytest.fixture
def runner():
    return CliRunner()


class TestCheckCommands:
    def test_check_germ_group_passes(self, runner):
        result = runner.invoke(main, ["check-germ-group", "--cases", "50"])
        assert result.exit_code == 0
        assert "PASS germ-group-axioms" in result.output
        assert "PASS germ-quotient" in result.output

    def test_violation_exits_one_with_counterexample(self, runner):
        result = runner.invoke(
            main,
            ["suite", "trivial-stabilizer", "--example", "e3-phi-fault"],
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "counterexample" in result.output
        assert '"fixing_word": "k"' in result.output

    def test_check_stabilizer_default(self, runner):
        result = runner.invoke(main, ["check-stabilizer"])
        assert result.exit_code == 0
        assert "PASS trivial-stabilizer" in result.output
        assert "PASS injectivity-certificate" in result.output

    @pytest.mark.parametrize(
        "example, ball, code", [("e3", 6, 1), ("e3", 5, 0), ("e1", 6, 0)]
    )
    def test_stabilizer_runs_at_the_command_ball(self, runner, example, ball, code):
        # e3's first fixing word has length 6; the spec's own ball is 5
        result = runner.invoke(main, ["check-stabilizer", "--example", example, "--ball", str(ball)])
        assert result.exit_code == code, result.output
        fixing = '{"target": "e3", "fixing_word": "f k f f k f^-1"}'
        assert (fixing in result.output) == (code == 1)
        assert "PASS injectivity-certificate" in result.output

    @pytest.mark.parametrize("ball, code", [(2, 1), (3, 0)])
    def test_bundled_fault_runs_at_the_command_ball(self, runner, ball, code):
        result = runner.invoke(main, ["check-action", "--example", "e1", "--ball", str(ball)])
        assert result.exit_code == code
        slipped = '{"target": "e3-coset-fault", "expected": "an action-law violation'
        assert (slipped in result.output) == (code == 1)
        assert ('"got": null}' in result.output) == (code == 1)

    @pytest.mark.parametrize(
        "args, spaces, compositions",
        [(["check-stabilizer", "--example", "e3"], 2, 485), (["check-action"], 3, 652)],
    )
    def test_one_blowup_space_per_target(self, runner, monkeypatch, args, spaces, compositions):
        # each target's space is shared by its suites; a bundled fault builds its own
        calls = collections.Counter()
        for owner, name in ((BlowupSpace, "_expand_orbit"), (blowup, "compose_homeo")):
            original = getattr(owner, name)

            def counted(*a, _name=name, _original=original):
                calls[_name] += 1
                return _original(*a)

            monkeypatch.setattr(owner, name, counted)
        assert runner.invoke(main, args).exit_code == 0
        assert calls == {"_expand_orbit": spaces, "compose_homeo": compositions}

    def test_report_file_written(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["check-germ-group", "--cases", "20", "--report", str(out)]
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert [r["suite"] for r in data] == ["germ-group-axioms", "germ-quotient"]
        assert all(r["passed"] for r in data)
        assert "elapsed_seconds" not in json.dumps(data)


def test_compute_d_prints_a_slope_past_the_digit_limit(runner, tmp_path):
    # g^5 has slope 10^5000: 5,001 digits, past the interpreter's 4,300-digit
    # string limit, which only reading a number applies
    space = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
    g = Homeo({"r": "r"}, {"r": PLMap.make((), 10**1000, 10**1000, offset=0)})
    (tmp_path / "s.json").write_text(serialize.emit_leafspace(space))
    (tmp_path / "a.json").write_text(serialize.emit_action({"g": g}))
    result = runner.invoke(
        main,
        ["compute-d", "--leafspace", str(tmp_path / "s.json"), "--action", str(tmp_path / "a.json"),
         "--word", "g^5"],
    )
    assert result.exit_code == 0, result.output
    slope = "1" + "0" * 5000
    assert result.output == f'file\tg g g g g\t{{"a": "{slope}", "b": "0"}}\n'


class TestInputErrors:
    def test_missing_file_is_input_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "compute-d",
                "--leafspace", str(tmp_path / "none.json"),
                "--action", str(tmp_path / "none2.json"),
            ],
        )
        assert result.exit_code == 2

    def test_malformed_file_is_input_error(self, runner, tmp_path):
        space = tmp_path / "space.json"
        action = tmp_path / "action.json"
        space.write_text("{broken")
        action.write_text("{}")
        result = runner.invoke(
            main,
            ["suite", "overlap-rays", "--leafspace", str(space), "--action", str(action)],
        )
        assert result.exit_code == 2
        assert "error" in result.output

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "not UTF-8 text"), (b"[" * 50_000, "JSON nested too deeply")],
        ids=["not-utf8", "deep-nesting"],
    )
    @pytest.mark.parametrize("kind", ["leafspace", "action"])
    def test_unreadable_file_is_input_error(self, runner, exported, tmp_path, content, message, kind):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        files = {k: str(exported / f"e1.{k}.json") for k in ("leafspace", "action")}
        files[kind] = str(bad)
        result = runner.invoke(
            main, ["compute-d", "--leafspace", files["leafspace"], "--action", files["action"]]
        )
        assert result.exit_code == 2, result.output
        assert f"{bad}: $: {message}" in result.output

    def test_deeply_nested_germ_argument_is_input_error(self, runner):
        result = runner.invoke(main, ["order-compare", "[" * 50_000, '{"a":"1","b":"0"}'])
        assert result.exit_code == 2, result.output
        assert "$: JSON nested too deeply" in result.output

    @pytest.mark.parametrize(
        "command, message",
        [
            (["order-compare", '{"a":"' + "1" * 5000 + '","b":"0"}', '{"a":"1","b":"0"}'],
             "error: $.a: not a rational: too many digits (5000 characters)\n"),
            (["compute-d", "--example", "e3", "--word", "f^" + "9" * 5000],
             "error: --word: bad word letter: too many digits (5002 characters)\n"),
        ],
        ids=["germ-slope", "word-exponent"],
    )
    def test_argument_past_the_digit_limit_is_input_error(self, runner, command, message):
        # 5,000 digits: past the interpreter's integer string limit
        result = runner.invoke(main, command)
        assert result.exit_code == 2, result.output
        assert result.output == message

    def test_word_past_the_letter_limit_is_input_error(self, runner):
        # refused before the power is expanded
        result = runner.invoke(main, ["compute-d", "--example", "e3", "--word", "f^1000000000"])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: --word: bad word letter 'f^1000000000': word longer than 100000 letters\n"
        )

    def test_half_specified_target(self, runner, tmp_path):
        space = tmp_path / "space.json"
        space.write_text('{"side": "negative", "branches": []}')
        result = runner.invoke(main, ["suite", "overlap-rays", "--leafspace", str(space)])
        assert result.exit_code == 2


    def test_non_letter_stabilizer_generator(self, runner, tmp_path):
        assert runner.invoke(main, ["examples", "export", str(tmp_path), "--name", "e3"]).exit_code == 0
        spec = tmp_path / "e3.blowup.json"
        data = json.loads(spec.read_text())
        data["K_generators"] = ["k", "k f k^-1"]
        spec.write_text(json.dumps(data))
        result = runner.invoke(
            main,
            [
                "suite", "trivial-stabilizer",
                "--leafspace", str(tmp_path / "e3.leafspace.json"),
                "--action", str(tmp_path / "e3.action.json"),
                "--blowup", str(spec),
            ],
        )
        assert result.exit_code == 2
        assert "$.K_generators[1]" in result.output

    @pytest.mark.parametrize("case", sorted(BAD_TARGETS))
    @pytest.mark.parametrize("command", TARGET_COMMANDS, ids=" ".join)
    def test_bad_file_target(self, runner, bad_files, case, command):
        space, action_name, spec, json_path = BAD_TARGETS[case]
        result = runner.invoke(
            main,
            [
                *command,
                "--leafspace", str(bad_files / f"{space}.leafspace.json"),
                "--action", str(bad_files / f"{action_name}.action.json"),
                "--blowup", str(bad_files / f"{spec}.blowup.json"),
            ],
        )
        assert result.exit_code == 2, result.output
        assert re.search(rf"\.json: {re.escape(json_path)}: ", result.output), result.output
        assert result.stdout == ""  # no TSV header or PASS line before the error

    def test_chart_maps_that_miss_a_branch_name_it(self, runner, exported, tmp_path):
        # the two maps of a generator cover different branches: rejected
        # when its homeo is built, at the generator's JSON path
        action = json.loads((exported / "e3.action.json").read_text())
        (tmp_path / "e3.action.json").write_text(json.dumps(without_b2_chart(action)))
        result = runner.invoke(
            main,
            ["compute-d", "--leafspace", str(exported / "e3.leafspace.json"),
             "--action", str(tmp_path / "e3.action.json")],
        )
        assert result.exit_code == 2
        assert result.output.endswith(
            "e3.action.json: $.generators[0]: branch_pl does not cover branch 'b2'\n"
        )

    @pytest.mark.parametrize(
        "case, error",
        [
            ("undeclared-stabilizer-letter", StabilizerGeneratorError),
            ("stabilizer-letter-moves-marked", StabilizerGeneratorError),
            ("coset-word-undeclared-letter", CosetTableError),
        ],
    )
    def test_blowup_space_runs_the_load_check(self, runner, bad_files, case, error):
        # the space rejects the parsed files with the message the load prints
        space_name, _, spec, json_path = BAD_TARGETS[case]
        space = serialize.parse_leafspace((bad_files / f"{space_name}.leafspace.json").read_text())
        generators = serialize.parse_action((bad_files / "e3.action.json").read_text())
        marked, stab, depth, _ = serialize.parse_blowup_spec(
            (bad_files / f"{spec}.blowup.json").read_text()
        )
        with pytest.raises(error) as raised:
            BlowupSpace(space, generators, marked, depth, stab)
        result = runner.invoke(
            main,
            [
                "blowup",
                "--leafspace", str(bad_files / f"{space_name}.leafspace.json"),
                "--action", str(bad_files / "e3.action.json"),
                "--blowup", str(bad_files / f"{spec}.blowup.json"),
            ],
        )
        assert result.exit_code == 2
        assert result.output.endswith(f"{json_path}: {raised.value}\n")

    def test_auto_extend(self, runner, tmp_path):
        space = LeafSpace.build(Side.NEGATIVE, {"r": (None, None), "b1": ("r", 0)})
        ident = PLMap.identity()
        swap = Homeo({"r": "r", "b1": "b3", "b3": "b1"}, {"r": ident, "b1": ident, "b3": ident})
        (tmp_path / "space.json").write_text(serialize.emit_leafspace(space))
        (tmp_path / "action.json").write_text(serialize.emit_action({"s": swap}))
        args = [
            "suite", "overlap-rays", "--cases", "5",
            "--leafspace", str(tmp_path / "space.json"),
            "--action", str(tmp_path / "action.json"),
        ]
        rejected = runner.invoke(main, args)
        assert rejected.exit_code == 2
        assert "$.generators[0]" in rejected.output
        extended = runner.invoke(main, [*args, "--auto-extend", "1"])
        assert extended.exit_code == 0, extended.output
        assert "PASS overlap-rays" in extended.output
        # a 3-cycle through b3 and b4 needs two new branches
        cycle = Homeo(
            {"r": "r", "b1": "b3", "b3": "b4", "b4": "b1"},
            {b: ident for b in ("r", "b1", "b3", "b4")},
        )
        (tmp_path / "action.json").write_text(serialize.emit_action({"s": cycle}))
        short = runner.invoke(main, [*args, "--auto-extend", "1"])
        assert short.exit_code == 2
        assert "action.json: $.generators: action needs more than 1 new branches" in short.output
        assert runner.invoke(main, [*args, "--auto-extend", "2"]).exit_code == 0

    def test_bad_file_with_a_suite_that_ignores_targets(self, runner, exported, tmp_path):
        space = tmp_path / "bad.json"
        space.write_text('{"side": "sideways", "branches": []}')
        result = runner.invoke(
            main,
            [
                "suite", "order-laws", "--cases", "5",
                "--leafspace", str(space), "--action", str(exported / "e3.action.json"),
            ],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"{space}: $.side: unknown side 'sideways'" in result.output

    def test_blowup_file_needs_both_other_files(self, runner, exported):
        spec = str(exported / "e3-phi-fault.blowup.json")
        result = runner.invoke(main, ["suite", "trivial-stabilizer", "--blowup", spec])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "file targets need both a leaf-space and an action file" in result.output
        with pytest.raises(SuiteError, match="need both"):
            resolve_targets(SuiteConfig(blowup_path=spec))

    @pytest.mark.parametrize("kinds", [["blowup"], ["leafspace", "action", "blowup"]], ids=" ".join)
    def test_example_with_file_targets(self, runner, exported, kinds):
        files = [arg for k in kinds for arg in (f"--{k}", str(exported / f"e3-phi-fault.{k}.json"))]
        result = runner.invoke(main, ["suite", "trivial-stabilizer", "--example", "e3", *files])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "--example cannot be combined with file targets" in result.output

    @pytest.mark.parametrize(
        "args, option",
        [
            (["check-germ-group", "--cases", "-1"], "--cases"),
            (["order-compare", "--cases", "-1"], "--cases"),
            (["check-hom", "--cases", "-1"], "--cases"),
            (["check-hom", "--max-word-length", "-1"], "--max-word-length"),
            (["check-action", "--ball", "-1"], "--ball"),
            (["check-action", "--plain-samples", "-1"], "--plain-samples"),
            (["check-action", "--interval-samples", "-1"], "--interval-samples"),
            (["check-stabilizer", "--ball", "-2", "--no-certify"], "--ball"),
            (["orbit-search", "--ball", "-1"], "--ball"),
            (["emit-plot", "--what", "orbit", "--ball", "-1"], "--ball"),
            (["fuzz", "--count", "-1"], "--count"),
            (["fuzz", "--max-breakpoints", "-1"], "--max-breakpoints"),
            (["fuzz", "--max-denominator", "0"], "--max-denominator"),
            (["suite", "overlap-rays", "--cases", "-5", "--example", "e1"], "--cases"),
            (["suite", "overlap-rays", "--auto-extend", "-1"], "--auto-extend"),
        ],
    )
    def test_negative_count_is_input_error(self, runner, args, option):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert option in result.output


class TestPlumbing:
    def test_order_compare_direct(self, runner):
        result = runner.invoke(
            main, ["order-compare", '{"a":"2","b":"-5"}', '{"a":"1","b":"0"}']
        )
        assert result.exit_code == 0
        assert result.output.strip() == "GT"

    def test_order_compare_needs_two_germs_or_none(self, runner):
        result = runner.invoke(main, ["order-compare", '{"a":"2","b":"-5"}'])
        assert result.exit_code == 2
        assert result.output == "error: give two germs or none\n"

    def test_order_compare_without_germs_runs_the_order_laws(self, runner):
        result = runner.invoke(main, ["order-compare", "--cases", "20"])
        assert result.exit_code == 0
        assert result.output.startswith("PASS order-laws")

    def test_examples_list(self, runner):
        result = runner.invoke(main, ["examples", "list"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "e1\tbranches=1\twith blow-up data",
            "e2\tbranches=2\taction only",
            "e3\tbranches=3\twith blow-up data",
            "e3-coset-fault\tbranches=3\twith blow-up data",
            "e3-phi-fault\tbranches=3\twith blow-up data",
        ]

    def test_compute_d_words(self, runner):
        result = runner.invoke(
            main, ["compute-d", "--example", "e3", "--word", "f k"]
        )
        assert result.exit_code == 0
        assert '{"a": "6", "b": "2"}' in result.output

    def test_orbit_search(self, runner):
        result = runner.invoke(main, ["orbit-search", "--example", "e1", "--n", "5"])
        assert result.exit_code == 0
        assert "u u u u u u" in result.output

    def test_fuzz_is_deterministic(self, runner):
        args = ["fuzz", "--kind", "plmap", "--count", "5", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        for line in first.output.strip().splitlines():
            serialize.plmap_from_data(json.loads(line))

    def test_fuzz_homeo_lines_are_homeo_records(self, runner):
        result = runner.invoke(main, ["fuzz", "--kind", "homeo", "--count", "5", "--seed", "7"])
        assert result.exit_code == 0
        for line in result.output.splitlines():
            h = serialize.homeo_from_data(json.loads(line))
            assert json.dumps(serialize.homeo_to_data(h)) == line

    # sha256 of the stdout of ``germkit fuzz --kind K --count 20 --seed 7``,
    # recorded while every map still stored its Fraction fields eagerly;
    # serialization now reads fields that a map builds on first read.  The
    # homeo pin was taken again when its lines took the homeo record's
    # sorted key order: each line parses to the same JSON value as before.
    FUZZ_SHA256 = {
        "plmap": "f5d54c39dd9b2f6308fb93ff711905c9e4dd83f66b820bc06fbb72b0a3987afa",
        "homeo": "3ad0f8434cdc480e6bf17d2add167805a93543a2fa78ed603965dde087e94b76",
        "word": "c6b9a28272518f9c9fe4b14fa2bc1945b55c2c0975bf2b5e63d3a5b2099fe58c",
        "leafspace": "71fba417fdab62887ce5a96b2582c1c0f0df30d9b5211a225cb72ac790d3f2c9",
    }

    @pytest.mark.parametrize("kind", sorted(FUZZ_SHA256))
    def test_fuzz_output_is_pinned(self, runner, kind):
        result = runner.invoke(main, ["fuzz", "--kind", kind, "--count", "20", "--seed", "7"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == self.FUZZ_SHA256[kind]

    # The tail of this unchecked record from its one point gives offset 0.
    WRONG_TAIL = record_of((F(0),), (F(0),), F(1), F(2), F(1))
    WRONG_TAIL_MESSAGE = "stored tail offset inconsistent with breakpoint data"

    def test_fuzz_rejects_a_map_draw_that_fails_check(self, runner, monkeypatch):
        draws = iter([PLMap.make([(0, 0)], 1, 2), self.WRONG_TAIL, PLMap.identity()])
        monkeypatch.setattr(CaseGen, "plmap", lambda gen: next(draws))
        result = runner.invoke(main, ["fuzz", "--kind", "plmap", "--count", "3"])
        assert result.exit_code == 1
        assert result.stderr == f"error: fuzz draw 1: {self.WRONG_TAIL_MESSAGE}\n"
        assert len(result.stdout.splitlines()) == 1  # draw 0 only

    def test_fuzz_rejects_a_homeo_draw_that_fails_validation(self, runner, monkeypatch):
        def homeo(gen, space):
            h = identity_homeo(space)
            return Homeo(h.branch_map, {**h.branch_pl, "b2": self.WRONG_TAIL})

        monkeypatch.setattr(CaseGen, "homeo", homeo)
        result = runner.invoke(main, ["fuzz", "--kind", "homeo", "--count", "2"])
        assert result.exit_code == 1
        assert result.stderr == (
            "error: fuzz draw 0: orientation: branch 'b2' chart map invalid "
            f"({self.WRONG_TAIL_MESSAGE})\n"
        )
        assert result.stdout == ""

    def test_fuzz_rejects_a_homeo_draw_that_splices_mismatched_maps(self, runner, monkeypatch):
        """A child's chart below its departure that misses its parent's
        value there: the splice raises, and the draw is named."""
        maps = iter([PLMap.identity()])
        monkeypatch.setattr(
            CaseGen, "_pl_fixing", lambda gen, *args: next(maps, PLMap.affine(1, 1))
        )
        result = runner.invoke(main, ["fuzz", "--kind", "homeo", "--count", "2"])
        assert result.exit_code == 1
        assert re.fullmatch(r"error: fuzz draw 0: splice point mismatch at \S+\n", result.stderr)

    def test_seed_env_var(self, runner):
        with_flag = runner.invoke(main, ["fuzz", "--kind", "word", "--count", "3", "--seed", "9"])
        with_env = runner.invoke(
            main, ["fuzz", "--kind", "word", "--count", "3"], env={"GERMKIT_SEED": "9"}
        )
        assert with_flag.output == with_env.output

    def test_emit_plot_germ_tails(self, runner):
        result = runner.invoke(main, ["emit-plot", "--what", "germ-tails", "--example", "e1", "--ball", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "target\tword\tlength\tslope\toffset"
        assert any("u u u" in line for line in lines)

    def test_emit_plot_orbit(self, runner):
        result = runner.invoke(main, ["emit-plot", "--what", "orbit", "--example", "e1"])
        assert result.exit_code == 0
        assert "target\tword\tbranch\tcoord" in result.output

    def test_examples_export_canonical(self, runner, tmp_path):
        result = runner.invoke(main, ["examples", "export", str(tmp_path), "--name", "e3"])
        assert result.exit_code == 0
        ls = (tmp_path / "e3.leafspace.json").read_text()
        assert serialize.is_canonical(ls, "leafspace")
        ac = (tmp_path / "e3.action.json").read_text()
        assert serialize.is_canonical(ac, "action")
        bs = (tmp_path / "e3.blowup.json").read_text()
        assert serialize.is_canonical(bs, "blowup")

    def test_file_target_round_trip(self, runner, tmp_path):
        assert runner.invoke(main, ["examples", "export", str(tmp_path), "--name", "e3"]).exit_code == 0
        result = runner.invoke(
            main,
            [
                "suite", "trivial-stabilizer",
                "--leafspace", str(tmp_path / "e3.leafspace.json"),
                "--action", str(tmp_path / "e3.action.json"),
                "--blowup", str(tmp_path / "e3.blowup.json"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "PASS trivial-stabilizer" in result.output

    def test_blowup_command(self, runner):
        # the classification is the base space's: blowing up keeps it
        result = runner.invoke(main, ["blowup", "--example", "e1", "--example", "e3"])
        assert result.exit_code == 0
        assert result.output == (
            "e1\torbit=17\tdepth=8\tclassification=line\n"
            "e3\torbit=407\tdepth=6\tclassification=one_sided_negative\n"
        )

    def test_noncanonical_input_flagged(self, runner, tmp_path):
        assert runner.invoke(main, ["examples", "export", str(tmp_path), "--name", "e1"]).exit_code == 0
        space = tmp_path / "e1.leafspace.json"
        action = tmp_path / "e1.action.json"
        action.write_text(action.read_text().replace('"1"', '"2/2"'))
        result = runner.invoke(
            main,
            ["suite", "overlap-rays", "--leafspace", str(space), "--action", str(action)],
        )
        assert result.exit_code == 0
        assert "not canonical" in result.output


class TestReadme:
    def test_command_list_matches_cli(self, runner):
        section = README.read_text().split("## Command line", 1)[1]
        block = section.split("```sh", 1)[1].split("```", 1)[0]
        named = sorted(set(re.findall(r"^germkit ([a-z-]+)", block, re.MULTILINE)))
        assert named == sorted(main.commands)
        for name in named:
            assert runner.invoke(main, [name, "--help"]).exit_code == 0, name

    def test_command_lines_use_real_options(self):
        # read against the click objects only: no command runs
        section = README.read_text().split("## Command line", 1)[1]
        block = section.split("```sh", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines()]
        lines = [words for words in lines if words and words[0] == "germkit"]
        assert lines
        for words in lines:
            if ">" in words:
                words = words[: words.index(">")]
            command, rest = main, words[1:]
            while isinstance(command, click.Group) and rest:
                assert rest[0] in command.commands, words
                command, rest = command.commands[rest[0]], rest[1:]
            options = {o for p in command.params for o in (*p.opts, *p.secondary_opts)}
            for flag in (w.split("=", 1)[0] for w in rest if w.startswith("--")):
                assert flag in options, (words, flag)


class TestFileTargets:
    def test_coset_fault_file_loads_and_is_caught(self, runner, exported):
        # a legal coset_table row still loads, and the law check catches it
        args = file_args(exported, "e3-coset-fault")
        result = runner.invoke(main, ["suite", "alpha-action-law", *args])
        assert result.exit_code == 1, result.output
        payload = json.loads(result.output.split("counterexample: ", 1)[1])
        assert payload == {
            "target": "file",
            "outer": "f^-1 k^-1",
            "inner": "f",
            "sample": {"point": {"branch": "b1", "coord": "-2/5"}, "height": "1/2"},
        }

    @pytest.mark.parametrize(
        "command",
        [["compute-d"], ["blowup"], ["orbit-search", "--ball", "1"], ["emit-plot", "--ball", "1"]],
        ids=" ".join,
    )
    def test_noncanonical_note_on_every_command(self, runner, tmp_path, command):
        assert runner.invoke(main, ["examples", "export", str(tmp_path), "--name", "e1"]).exit_code == 0
        action = tmp_path / "e1.action.json"
        action.write_text(action.read_text().replace('"1"', '"2/2"'))
        result = runner.invoke(main, [*command, *file_args(tmp_path, "e1")])
        assert result.exit_code == 0, result.output
        note = f"note: {action} is not canonical; re-serialization differs\n"
        assert result.output.startswith(note)  # before any output
        assert result.output.count("note:") == 1
        assert "note:" not in result.stdout

    def test_file_target_with_blowup_validates_each_generator_once(self, exported, monkeypatch):
        # the load checks each generator and keeps the result, which the
        # blow-up space built on the same space reads instead of checking again
        calls = calls_everywhere(monkeypatch, action, "validate_homeo")
        config = SuiteConfig(
            leafspace_path=str(exported / "e1.leafspace.json"),
            action_path=str(exported / "e1.action.json"),
            blowup_path=str(exported / "e1.blowup.json"),
        )
        assert suites.run_suite("alpha-action-law", config).passed
        assert len(calls) == len(bundle("e1").generators)

    @pytest.mark.parametrize("command", TARGET_COMMANDS, ids=" ".join)
    def test_one_parse_per_file(self, runner, exported, monkeypatch, command):
        calls = collections.Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("parse_leafspace", "parse_action", "parse_blowup_spec"):
            counted(serialize, name)
        # one check per generator, counted wherever the package binds it:
        # the blow-up space and word_homeo read the result the load keeps
        validated = calls_everywhere(monkeypatch, action, "validate_homeo")
        result = runner.invoke(main, [*command, *file_args(exported, "e3")])
        assert result.exit_code == 0, result.output
        assert calls == {"parse_leafspace": 1, "parse_action": 1, "parse_blowup_spec": 1}
        assert len(validated) == len(bundle("e3").generators)

    def test_positive_side_in_file_coordinates(self, runner, tmp_path):
        # r with b departing at 0 and c at 1 on the positive side, g = x -> 2x
        # below 0 and the identity above it; the mirror is its x -> -x image
        mirrors = {
            "positive": ({"b": "0", "c": "1"}, PLMap.make([(0, 0)], 2, 1)),
            "negative": ({"b": "0", "c": "-1"}, PLMap.make([(0, 0)], 1, 2)),
        }
        outputs = []
        for side, (departures, g) in mirrors.items():
            rows = [{"id": "r", "parent": None, "departure": None}]
            rows += [{"id": b, "parent": "r", "departure": d} for b, d in departures.items()]
            (tmp_path / f"{side}.leafspace.json").write_text(
                json.dumps({"side": side, "branches": rows})
            )
            homeo = Homeo({b: b for b in "rbc"}, {b: g for b in "rbc"})
            (tmp_path / f"{side}.action.json").write_text(serialize.emit_action({"g": homeo}))
            files = file_args(tmp_path, side, blowup=False)
            result = runner.invoke(main, ["compute-d", *files])
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout)
            result = runner.invoke(main, ["suite", "overlap-rays", "--cases", "20", *files])
            assert result.exit_code == 0, result.output
            assert "PASS overlap-rays" in result.stdout
        assert outputs == ['file\tg\t{"a": "2", "b": "0"}\n'] * 2

    @pytest.mark.parametrize(
        "departures, charts, message",
        [
            # c's chart is x -> 3x below 0 while r's is x -> 2x: in the file
            # the lines share below c's departure 1, and there they differ
            (
                {"b": "0", "c": "1"},
                {"r": PLMap.make([(0, 0)], 2, 1), "b": PLMap.make([(0, 0)], 2, 1),
                 "c": PLMap.make([(0, 0)], 3, 1)},
                "chart maps of 'c' and parent 'r' disagree below the departure",
            ),
            # x -> x + 1 moves b's departure 2 to 3, but b and r share from 2
            (
                {"b": "2"},
                {"r": PLMap.affine(1, 1), "b": PLMap.affine(1, 1)},
                "image branches 'b', 'r' share from 2, expected 3",
            ),
        ],
        ids=["compatibility", "departure"],
    )
    def test_positive_side_errors_in_file_coordinates(
        self, runner, tmp_path, departures, charts, message
    ):
        rows = [{"id": "r", "parent": None, "departure": None}]
        rows += [{"id": b, "parent": "r", "departure": d} for b, d in departures.items()]
        (tmp_path / "pos.leafspace.json").write_text(json.dumps({"side": "positive", "branches": rows}))
        homeo = Homeo({b: b for b in charts}, charts)
        (tmp_path / "pos.action.json").write_text(serialize.emit_action({"g": homeo}))
        result = runner.invoke(main, ["compute-d", *file_args(tmp_path, "pos", blowup=False)])
        assert result.exit_code == 2
        assert "$.generators[0]" in result.output
        assert message in result.output

    def test_positive_side_blowup_mirrors_e3(self, runner, exported, tmp_path):
        e3 = bundle("e3")
        branches = {name: (br.parent, br.departure) for name, br in e3.space.branches.items()}
        space = LeafSpace.build(Side.POSITIVE, branches)  # the file negates the departures
        mirrored = {
            name: Homeo(h.branch_map, {b: reflect(f) for b, f in h.branch_pl.items()})
            for name, h in e3.generators.items()
        }
        marked = Point(e3.marked.branch, -e3.marked.coord)
        (tmp_path / "pos.leafspace.json").write_text(serialize.emit_leafspace(space))
        (tmp_path / "pos.action.json").write_text(serialize.emit_action(mirrored))
        (tmp_path / "pos.blowup.json").write_text(
            serialize.emit_blowup_spec(marked, e3.stabilizer, e3.depth, e3.ball)
        )
        for command in (["blowup"], ["compute-d", "--word", "f k^-1 f"], ["emit-plot", "--what", "orbit"]):
            ours = runner.invoke(main, [*command, *file_args(tmp_path, "pos")])
            theirs = runner.invoke(main, [*command, *file_args(exported, "e3")])
            assert ours.exit_code == theirs.exit_code == 0, ours.output
            # same orbit and germs; only the classification names the side
            assert ours.output == theirs.output.replace("one_sided_negative", "one_sided_positive")
        result = runner.invoke(main, ["check-stabilizer", "--ball", "3", *file_args(tmp_path, "pos")])
        assert result.exit_code == 0, result.output

    def test_structural_round_trips_file_targets(self, exported, monkeypatch):
        config = SuiteConfig(
            cases=5,
            leafspace_path=str(exported / "e3.leafspace.json"),
            action_path=str(exported / "e3.action.json"),
            blowup_path=str(exported / "e3.blowup.json"),
        )
        (target,) = resolve_targets(config)
        emitted = []
        for name in ("emit_action", "emit_blowup_spec"):
            original = getattr(serialize, name)

            def wrapper(*args, _name=name, _original=original):
                emitted.append((_name, args))
                return _original(*args)

            monkeypatch.setattr(serialize, name, wrapper)
        report = suites.run_suite("structural", config, [target])
        assert report.passed, report.counterexample
        # emit, parse, emit again: the file bundle's action, then its blow-up spec
        assert [name for name, _ in emitted] == ["emit_action"] * 2 + ["emit_blowup_spec"] * 2
        assert emitted[0][1] == (target.generators,) and emitted[0][1][0] is target.generators
        spec = (target.marked, target.stabilizer, target.depth, target.ball)
        assert all(a is b for a, b in zip(emitted[2][1], spec, strict=True))

    def test_structural_catches_a_file_spec_that_does_not_round_trip(self, exported, monkeypatch):
        parse = serialize.parse_blowup_spec
        monkeypatch.setattr(
            serialize, "parse_blowup_spec",
            lambda text: (lambda marked, stab, depth, ball: (marked, stab, depth + 1, ball))(*parse(text)),
        )
        config = SuiteConfig(cases=5, **{
            f"{kind}_path": str(exported / f"e3.{kind}.json") for kind in ("leafspace", "action", "blowup")
        })
        report = suites.run_suite("structural", config)
        assert report.counterexample == {"kind": "roundtrip-blowup", "target": "file"}
        assert suites.replay("structural", config, report.counterexample)
