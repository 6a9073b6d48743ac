import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from germkit import serialize
from germkit.action import Word
from germkit.examples import BUNDLED, bundle
from germkit.germ import Germ
from germkit.leafspace import Point, Side
from germkit.plmap import PLMap
from germkit.rationals import RationalFormatError, parse_rational
from germkit.serialize import SpecFormatError


class TestRationals:
    def test_noncanonical_fraction_normalizes(self):
        text = serialize.emit_plmap(PLMap.affine(F(1, 2), 0)).replace("1/2", "2/4")
        parsed = serialize.parse_plmap(text)
        assert parsed.right_slope == F(1, 2)
        assert '"1/2"' in serialize.emit_plmap(parsed)
        assert not serialize.is_canonical(text, "plmap")

    def test_bad_rational_path_in_error(self):
        data = {"points": [], "left_slope": "x", "right_slope": "1", "offset": "0"}
        with pytest.raises(SpecFormatError, match="left_slope"):
            serialize.plmap_from_data(data)

    @pytest.mark.parametrize("text", ["-\u0661", "\u0661/2", "1/\u0662", "\uff11"])
    def test_non_ascii_digits_rejected(self, text):
        data = {"points": [], "left_slope": "1", "right_slope": "1", "offset": text}
        with pytest.raises(SpecFormatError, match=r"\$\.offset: not a rational"):
            serialize.plmap_from_data(data)

    @pytest.mark.parametrize("text", [" 1", "1\n", "\xa0-1/2 ", "1 /2", "\u20031"])
    def test_whitespace_rejected(self, text):
        with pytest.raises(RationalFormatError, match="not a rational"):
            parse_rational(text)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("1/0", "zero denominator in '1/0'"),
            (1, "expected a rational string, got 1"),
            # past the interpreter's 4,300-digit integer string limit
            pytest.param(
                "1/" + "7" * 5000, "not a rational: too many digits (5002 characters)",
                id="past-the-digit-limit",
            ),
        ],
    )
    def test_input_errors(self, text, message):
        with pytest.raises(RationalFormatError) as raised:
            parse_rational(text)
        assert str(raised.value) == message


class TestPLMapSchema:
    def test_roundtrip_bytes(self):
        f = PLMap.make([(-1, 0), (2, F(9, 2))], F(1, 3), 2)
        text = serialize.emit_plmap(f)
        assert serialize.parse_plmap(text) == f
        assert serialize.emit_plmap(serialize.parse_plmap(text)) == text
        assert serialize.is_canonical(text, "plmap")

    def test_offset_mismatch_rejected(self):
        f = PLMap.make([(0, 0)], 1, 2)
        data = serialize.plmap_to_data(f)
        data["offset"] = "5"
        with pytest.raises(SpecFormatError, match="offset"):
            serialize.plmap_from_data(data)

    def test_affine_needs_offset(self):
        with pytest.raises(SpecFormatError, match="offset"):
            serialize.plmap_from_data(
                {"points": [], "left_slope": "1", "right_slope": "1"}
            )

    def test_malformed_json_position(self):
        with pytest.raises(SpecFormatError, match="line 1"):
            serialize.parse_plmap("{nope}")


class TestLeafSpaceSchema:
    def test_roundtrip(self):
        b = bundle("e3")
        text = serialize.emit_leafspace(b.space)
        again = serialize.parse_leafspace(text)
        assert serialize.emit_leafspace(again) == text
        assert serialize.is_canonical(text, "leafspace")

    def test_positive_side_reflection(self):
        text = json.dumps(
            {
                "side": "positive",
                "branches": [
                    {"id": "r", "parent": None, "departure": None},
                    {"id": "b", "parent": "r", "departure": "3"},
                ],
            },
            indent=2,
        ) + "\n"
        space = serialize.parse_leafspace(text)
        assert space.side is Side.POSITIVE
        # stored reflected so the engine sees downward branching
        assert space.departure("b") == F(-3)
        assert serialize.emit_leafspace(space) == text

    def test_undefined_parent_names_branch(self):
        with pytest.raises(SpecFormatError, match="b1"):
            serialize.parse_leafspace(
                json.dumps(
                    {
                        "side": "negative",
                        "branches": [
                            {"id": "r", "parent": None, "departure": None},
                            {"id": "b1", "parent": "zz", "departure": "0"},
                        ],
                    }
                )
            )

    def test_duplicate_id(self):
        with pytest.raises(SpecFormatError, match="duplicate"):
            serialize.parse_leafspace(
                json.dumps(
                    {
                        "side": "negative",
                        "branches": [
                            {"id": "r", "parent": None, "departure": None},
                            {"id": "r", "parent": None, "departure": None},
                        ],
                    }
                )
            )


class TestActionSchema:
    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_roundtrip(self, name):
        b = bundle(name)
        text = serialize.emit_action(b.generators)
        parsed = serialize.parse_action(text)
        assert serialize.emit_action(parsed) == text
        assert parsed.keys() == b.generators.keys()
        for key in parsed:
            assert parsed[key] == b.generators[key]

    def test_missing_field_path(self):
        with pytest.raises(SpecFormatError, match=r"generators\[0\]"):
            serialize.parse_action(json.dumps({"generators": [{"name": "f"}]}))

    @pytest.mark.parametrize("name", ["1", "a b", "f^2", "f^-1", "2f", "", "f\n", "\u00e9"])
    def test_generator_name_must_be_a_word_letter(self, name):
        # a word naming such a generator could not be parsed back
        data = json.loads(serialize.emit_action(bundle("e3").generators))
        data["generators"][1]["name"] = name
        with pytest.raises(SpecFormatError, match=r"\$\.generators\[1\]\.name: generator name"):
            serialize.action_from_data(data)

    def test_letter_names_load(self):
        data = json.loads(serialize.emit_action(bundle("e3").generators))
        data["generators"][1]["name"] = "_K2"
        assert list(serialize.action_from_data(data)) == ["f", "_K2"]


class TestBlowupSchema:
    def test_roundtrip_with_coset_table(self):
        b = bundle("e3-coset-fault")
        text = serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball)
        marked, stab, depth, ball = serialize.parse_blowup_spec(text)
        assert marked == b.marked
        assert depth == b.depth and ball == b.ball
        assert stab.coset_table == {"f": Word.parse("f k")}
        assert serialize.emit_blowup_spec(marked, stab, depth, ball) == text

    @pytest.mark.parametrize(
        "rows, where",
        [
            ([{"word": "f", "rep": "f k"}, {"word": "f^-1", "rep": "k"}], r"coset_table\[1\]\.rep"),
            ([{"word": "f", "rep": "f k"}, {"word": "k^-1 k f", "rep": "f"}], r"coset_table\[1\]\.word"),
            ([{"word": "f^-1 f", "rep": "1"}, {"word": "f", "rep": "k"}], r"coset_table\[0\]\.word"),
        ],
    )
    def test_coset_table_error_names_its_row(self, rows, where):
        b = bundle("e3")
        data = json.loads(serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball))
        with pytest.raises(SpecFormatError, match=where):
            serialize.blowup_spec_from_data(dict(data, coset_table=rows))

    def test_phi_missing_generator(self):
        with pytest.raises(SpecFormatError, match="phi"):
            serialize.parse_blowup_spec(
                json.dumps(
                    {
                        "marked": {"branch": "r", "coord": "0"},
                        "K_generators": ["k"],
                        "phi": {},
                        "depth": 2,
                        "ball": 2,
                    }
                )
            )

    def test_negative_depth(self):
        with pytest.raises(SpecFormatError, match="depth"):
            serialize.parse_blowup_spec(
                json.dumps(
                    {
                        "marked": {"branch": "r", "coord": "0"},
                        "K_generators": [],
                        "phi": {},
                        "depth": -1,
                        "ball": 2,
                    }
                )
            )


class TestSmallSchemas:
    def test_germ(self):
        g = Germ(F(2, 3), F(-7))
        data = serialize.germ_to_data(g)
        assert data == {"a": "2/3", "b": "-7"}
        assert serialize.germ_from_data(data) == g

    def test_point(self):
        p = Point("b1", F(-5, 4))
        assert serialize.point_from_data(serialize.point_to_data(p)) == p


def _plmap_data(**changes):
    return dict({"points": [], "left_slope": "1", "right_slope": "1", "offset": "0"}, **changes)


def _e3_action_data(second_name):
    data = json.loads(serialize.emit_action(bundle("e3").generators))
    data["generators"][1]["name"] = second_name
    return data


def _e3_spec_data(**changes):
    b = bundle("e3")
    data = json.loads(serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball))
    return dict(data, **changes)


# input the schemas must reject: (call, error type, JSON path or None)
INPUT_ERRORS = {
    "non-string-rational": (
        lambda: serialize.plmap_from_data(_plmap_data(left_slope=1)), SpecFormatError, "$.left_slope"
    ),
    "array-for-object": (lambda: serialize.plmap_from_data([]), SpecFormatError, "$"),
    "object-for-array": (
        lambda: serialize.plmap_from_data(_plmap_data(points={})), SpecFormatError, "$.points"
    ),
    "number-for-string": (
        lambda: serialize.point_from_data({"branch": 3, "coord": "0"}), SpecFormatError, "$.branch"
    ),
    "three-element-point": (
        lambda: serialize.plmap_from_data(_plmap_data(points=[["0", "0", "1"]])),
        SpecFormatError, "$.points[0]",
    ),
    "duplicate-generator": (
        lambda: serialize.action_from_data(_e3_action_data("f")),
        SpecFormatError, "$.generators[1].name",
    ),
    "ball-minus-one": (
        lambda: serialize.blowup_spec_from_data(_e3_spec_data(ball=-1)), SpecFormatError, "$.ball"
    ),
    "ball-true": (
        lambda: serialize.blowup_spec_from_data(_e3_spec_data(ball=True)), SpecFormatError, "$.ball"
    ),
    "germ-slope-zero": (
        lambda: serialize.germ_from_data({"a": "0", "b": "0"}), SpecFormatError, "$.a"
    ),
    "unknown-schema-kind": (lambda: serialize.is_canonical("{}", "nope"), ValueError, None),
    # an integer past the interpreter's 4,300-digit string limit
    "json-integer-past-the-digit-limit": (
        lambda: serialize.parse_blowup_spec('{"depth": ' + "1" * 5000 + "}"), SpecFormatError, "$"
    ),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors(case):
    call, error, path = INPUT_ERRORS[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert getattr(raised.value, "path", None) == path


def test_golden_leafspace_bytes():
    # frozen canonical emission: guards the byte-exact round-trip contract
    from germkit.leafspace import LeafSpace

    space = LeafSpace.build(
        Side.NEGATIVE, {"r": (None, None), "b1": ("r", F(-1, 2))}
    )
    assert serialize.emit_leafspace(space) == (
        '{\n'
        '  "side": "negative",\n'
        '  "branches": [\n'
        '    {\n'
        '      "id": "r",\n'
        '      "parent": null,\n'
        '      "departure": null\n'
        '    },\n'
        '    {\n'
        '      "id": "b1",\n'
        '      "parent": "r",\n'
        '      "departure": "-1/2"\n'
        '    }\n'
        '  ]\n'
        '}\n'
    )


def test_golden_plmap_bytes():
    f = PLMap.make([(0, 0)], 1, 2)
    assert serialize.emit_plmap(f) == (
        '{\n'
        '  "points": [\n'
        '    [\n'
        '      "0",\n'
        '      "0"\n'
        '    ]\n'
        '  ],\n'
        '  "left_slope": "1",\n'
        '  "right_slope": "2",\n'
        '  "offset": "0"\n'
        '}\n'
    )


@pytest.mark.parametrize("name", BUNDLED)
def test_every_bundle_round_trips(name):
    b = bundle(name)
    ls = serialize.emit_leafspace(b.space)
    assert serialize.is_canonical(ls, "leafspace")
    ac = serialize.emit_action(b.generators)
    assert serialize.is_canonical(ac, "action")
    if b.marked is not None:
        bs = serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball)
        assert serialize.is_canonical(bs, "blowup")


def exported_texts(b):
    """The three files ``germkit examples export`` writes for a bundle."""
    return (
        serialize.emit_leafspace(b.space),
        serialize.emit_action(b.generators),
        serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball),
    )


@pytest.mark.parametrize("name", ["e3-phi-fault", "e3-coset-fault"])
def test_fault_bundle_is_e3_but_for_name_and_stabilizer(name):
    e3 = bundle("e3")
    restored = replace(bundle(name), name="e3", stabilizer=e3.stabilizer)
    assert exported_texts(restored) == exported_texts(e3)
    assert exported_texts(bundle(name))[2] != exported_texts(e3)[2]
