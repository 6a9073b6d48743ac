import json

import pytest
from click.testing import CliRunner

from germkit.cli import main
from germkit import serialize


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
        result = runner.invoke(main, ["blowup", "--example", "e3"])
        assert result.exit_code == 0
        assert "orbit=407" in result.output
        assert "preserved=True" in result.output

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
