"""Text schemas for every object the harness reads or writes.

All files are JSON with rationals as ``"p/q"`` strings.  Emission is
canonical (fixed key order, two-space indent, trailing newline, rationals in
lowest terms), so canonical files round-trip byte-for-byte and diffs stay
readable.  Parsing is tolerant of non-canonical rationals like ``"2/4"``;
:func:`is_canonical` tells whether a re-serialization would differ.  The
one exception is a blow-up spec's ``coset_table`` word: it is matched by
its text, so it must be written as the reduced word prints.

Spaces declared with ``"side": "positive"`` are stored internally with
negated departures (the engine always assumes branching is below); the file
coordinates are restored on output.  Actions and blow-up specs are parsed as
written: the side is known only once a leaf space is paired with them, so
:func:`germkit.suites.resolve_targets` reflects them.

Parse problems raise :class:`SpecFormatError` whose message carries a
JSON-path-style location, prefixed by the file name when one is known.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Mapping

from .action import ActionError, Homeo, Word, _LETTER_RE
from .blowup import BlowupError, CosetTableError, StabilizerData, StabilizerGeneratorError
from .germ import Germ
from .leafspace import LeafSpace, LeafSpaceError, Point, Side
from .plmap import PLMap, InvalidMapError
from .rationals import RationalFormatError, format_rational, parse_rational


class SpecFormatError(ValueError):
    """A spec file does not match its schema; the message names the spot,
    and the file when ``file`` is given."""

    def __init__(self, message: str, path: str = "$", file: str | None = None):
        super().__init__(f"{path}: {message}" if file is None else f"{file}: {path}: {message}")
        self.message = message
        self.path = path


def _rational(value: Any, path: str) -> Fraction:
    if not isinstance(value, str):
        raise SpecFormatError(f"expected a rational string, got {value!r}", path)
    try:
        return parse_rational(value)
    except RationalFormatError as exc:
        raise SpecFormatError(str(exc), path) from None


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFormatError(f"expected an object, got {type(value).__name__}", path)
    return value


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(f"expected an array, got {type(value).__name__}", path)
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SpecFormatError(f"expected a string, got {value!r}", path)
    return value


def _get(obj: Mapping, key: str, path: str) -> Any:
    if key not in obj:
        raise SpecFormatError(f"missing field {key!r}", path)
    return obj[key]


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise SpecFormatError("JSON nested too deeply") from None
    except ValueError:  # an integer past the interpreter's string limit
        raise SpecFormatError("JSON integer has too many digits") from None


def _dumps(data: Any) -> str:
    return json.dumps(data, indent=2) + "\n"


# ---------------------------------------------------------------------------
# PL maps


def plmap_to_data(f: PLMap) -> dict:
    return {
        "points": [
            [format_rational(x), format_rational(y)]
            for x, y in zip(f.breakpoints, f.values)
        ],
        "left_slope": format_rational(f.left_slope),
        "right_slope": format_rational(f.right_slope),
        "offset": format_rational(f.tail_offset),
    }


def plmap_from_data(data: Any, path: str = "$") -> PLMap:
    obj = _mapping(data, path)
    raw_points = _array(_get(obj, "points", path), f"{path}.points")
    points = []
    for i, pair in enumerate(raw_points):
        arr = _array(pair, f"{path}.points[{i}]")
        if len(arr) != 2:
            raise SpecFormatError("expected a [breakpoint, value] pair", f"{path}.points[{i}]")
        points.append(
            (
                _rational(arr[0], f"{path}.points[{i}][0]"),
                _rational(arr[1], f"{path}.points[{i}][1]"),
            )
        )
    left = _rational(_get(obj, "left_slope", path), f"{path}.left_slope")
    right = _rational(_get(obj, "right_slope", path), f"{path}.right_slope")
    offset = _rational(_get(obj, "offset", path), f"{path}.offset")
    try:
        if points:
            f = PLMap.make(points, left, right)
            if f.tail_offset != offset:
                raise SpecFormatError(
                    f"offset {format_rational(offset)} inconsistent with points "
                    f"(tail gives {format_rational(f.tail_offset)})",
                    f"{path}.offset",
                )
            return f
        return PLMap.make((), left, right, offset=offset)
    except InvalidMapError as exc:
        raise SpecFormatError(str(exc), path) from None


def emit_plmap(f: PLMap) -> str:
    return _dumps(plmap_to_data(f))


def parse_plmap(text: str) -> PLMap:
    return plmap_from_data(_loads(text))


# ---------------------------------------------------------------------------
# Leaf spaces


def leafspace_to_data(space: LeafSpace) -> dict:
    reflect = space.side is Side.POSITIVE
    rows = []
    order = sorted(space.branches, key=lambda b: (b != space.root, b))
    for name in order:
        br = space.branches[name]
        if br.parent is None:
            rows.append({"id": name, "parent": None, "departure": None})
        else:
            dep = -br.departure if reflect else br.departure
            rows.append(
                {"id": name, "parent": br.parent, "departure": format_rational(dep)}
            )
    return {"side": space.side.value, "branches": rows}


def leafspace_from_data(data: Any, path: str = "$") -> LeafSpace:
    obj = _mapping(data, path)
    side_text = _string(_get(obj, "side", path), f"{path}.side")
    if side_text not in (Side.NEGATIVE.value, Side.POSITIVE.value):
        raise SpecFormatError(f"unknown side {side_text!r}", f"{path}.side")
    side = Side(side_text)
    reflect = side is Side.POSITIVE
    rows = _array(_get(obj, "branches", path), f"{path}.branches")
    branches: dict[str, tuple[str | None, Fraction | None]] = {}
    for i, raw in enumerate(rows):
        row_path = f"{path}.branches[{i}]"
        row = _mapping(raw, row_path)
        name = _string(_get(row, "id", row_path), f"{row_path}.id")
        if name in branches:
            raise SpecFormatError(f"duplicate branch id {name!r}", f"{row_path}.id")
        parent = _get(row, "parent", row_path)
        departure = _get(row, "departure", row_path)
        if parent is None:
            if departure is not None:
                raise SpecFormatError(
                    f"root branch {name!r} cannot have a departure",
                    f"{row_path}.departure",
                )
            branches[name] = (None, None)
        else:
            parent = _string(parent, f"{row_path}.parent")
            if departure is None:
                raise SpecFormatError(
                    f"branch {name!r} is missing its departure", f"{row_path}.departure"
                )
            dep = _rational(departure, f"{row_path}.departure")
            branches[name] = (parent, -dep if reflect else dep)
    try:
        return LeafSpace.build(side, branches)
    except LeafSpaceError as exc:
        raise SpecFormatError(str(exc), f"{path}.branches") from None


def emit_leafspace(space: LeafSpace) -> str:
    return _dumps(leafspace_to_data(space))


def parse_leafspace(text: str) -> LeafSpace:
    return leafspace_from_data(_loads(text))


# ---------------------------------------------------------------------------
# Points, germs, words


def point_to_data(p: Point) -> dict:
    return {"branch": p.branch, "coord": format_rational(p.coord)}


def point_from_data(data: Any, path: str = "$") -> Point:
    obj = _mapping(data, path)
    return Point(
        _string(_get(obj, "branch", path), f"{path}.branch"),
        _rational(_get(obj, "coord", path), f"{path}.coord"),
    )


def germ_to_data(g: Germ) -> dict:
    return {"a": format_rational(g.slope), "b": format_rational(g.offset)}


def germ_from_data(data: Any, path: str = "$") -> Germ:
    obj = _mapping(data, path)
    slope = _rational(_get(obj, "a", path), f"{path}.a")
    offset = _rational(_get(obj, "b", path), f"{path}.b")
    if slope <= 0:
        raise SpecFormatError("germ slope must be positive", f"{path}.a")
    return Germ(slope, offset)


def parse_germ(text: str) -> Germ:
    return germ_from_data(_loads(text))


def word_from_text(text: str, path: str = "$") -> Word:
    try:
        return Word.parse(text)
    except ActionError as exc:
        raise SpecFormatError(str(exc), path) from None


# ---------------------------------------------------------------------------
# Actions


def homeo_to_data(h: Homeo) -> dict:
    """A homeo's record: both maps in sorted branch order."""
    return {
        "branch_map": {b: h.branch_map[b] for b in sorted(h.branch_map)},
        "branch_pl": {b: plmap_to_data(h.branch_pl[b]) for b in sorted(h.branch_pl)},
    }


def homeo_from_data(data: Any, path: str = "$") -> Homeo:
    obj = _mapping(data, path)
    raw_map = _mapping(_get(obj, "branch_map", path), f"{path}.branch_map")
    branch_map = {
        _string(k, f"{path}.branch_map"): _string(v, f"{path}.branch_map[{k!r}]")
        for k, v in raw_map.items()
    }
    raw_pl = _mapping(_get(obj, "branch_pl", path), f"{path}.branch_pl")
    branch_pl = {
        _string(k, f"{path}.branch_pl"): plmap_from_data(v, f"{path}.branch_pl[{k!r}]")
        for k, v in raw_pl.items()
    }
    try:
        return Homeo(branch_map, branch_pl)
    except ActionError as exc:
        raise SpecFormatError(str(exc), path) from None


def action_to_data(generators: Mapping[str, Homeo]) -> dict:
    return {
        "generators": [
            {"name": name, **homeo_to_data(generators[name])} for name in sorted(generators)
        ]
    }


def action_from_data(data: Any, path: str = "$") -> dict[str, Homeo]:
    obj = _mapping(data, path)
    rows = _array(_get(obj, "generators", path), f"{path}.generators")
    generators: dict[str, Homeo] = {}
    for i, raw in enumerate(rows):
        row_path = f"{path}.generators[{i}]"
        row = _mapping(raw, row_path)
        name = _string(_get(row, "name", row_path), f"{row_path}.name")
        letter = _LETTER_RE.fullmatch(name)
        if letter is None or letter.group(2) is not None:
            raise SpecFormatError(f"generator name {name!r} is not a word letter", f"{row_path}.name")
        if name in generators:
            raise SpecFormatError(f"duplicate generator {name!r}", f"{row_path}.name")
        generators[name] = homeo_from_data(row, row_path)
    return generators


def emit_action(generators: Mapping[str, Homeo]) -> str:
    return _dumps(action_to_data(generators))


def parse_action(text: str) -> dict[str, Homeo]:
    return action_from_data(_loads(text))


# ---------------------------------------------------------------------------
# Blow-up specs


def blowup_spec_to_data(
    marked: Point,
    stab: StabilizerData,
    depth: int,
    ball: int,
) -> dict:
    data: dict[str, Any] = {
        "marked": point_to_data(marked),
        "K_generators": [str(w) for w in stab.k_generators],
        "phi": {name: plmap_to_data(stab.phi[name]) for name in sorted(stab.phi)},
        "depth": depth,
        "ball": ball,
    }
    if stab.coset_table:
        data["coset_table"] = [
            {"word": w, "rep": str(stab.coset_table[w])} for w in sorted(stab.coset_table)
        ]
    return data


def blowup_spec_from_data(data: Any, path: str = "$") -> tuple[Point, StabilizerData, int, int]:
    obj = _mapping(data, path)
    marked = point_from_data(_get(obj, "marked", path), f"{path}.marked")
    k_gen_rows = _array(_get(obj, "K_generators", path), f"{path}.K_generators")
    k_generators = tuple(
        word_from_text(_string(w, f"{path}.K_generators[{i}]"), f"{path}.K_generators[{i}]")
        for i, w in enumerate(k_gen_rows)
    )
    phi_data = _mapping(_get(obj, "phi", path), f"{path}.phi")
    phi = {
        _string(k, f"{path}.phi"): plmap_from_data(v, f"{path}.phi[{k!r}]")
        for k, v in phi_data.items()
    }
    coset_table: dict[str, Word] = {}
    if "coset_table" in obj:
        for i, raw in enumerate(_array(obj["coset_table"], f"{path}.coset_table")):
            row_path = f"{path}.coset_table[{i}]"
            row = _mapping(raw, row_path)
            key = _string(_get(row, "word", row_path), f"{row_path}.word")
            if key in coset_table:
                raise SpecFormatError(f"coset table word {key!r} is listed twice", f"{row_path}.word")
            coset_table[key] = word_from_text(
                _string(_get(row, "rep", row_path), f"{row_path}.rep"), f"{row_path}.rep"
            )
    depth = _get(obj, "depth", path)
    ball = _get(obj, "ball", path)
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise SpecFormatError("depth must be a nonnegative integer", f"{path}.depth")
    if not isinstance(ball, int) or isinstance(ball, bool) or ball < 0:
        raise SpecFormatError("ball must be a nonnegative integer", f"{path}.ball")
    try:
        stab = StabilizerData(k_generators, phi, coset_table)
    except StabilizerGeneratorError as exc:
        raise SpecFormatError(str(exc), f"{path}.K_generators[{exc.index}]") from None
    except CosetTableError as exc:
        row = list(coset_table).index(exc.key)  # keys are rows, as duplicates are rejected
        raise SpecFormatError(str(exc), f"{path}.coset_table[{row}].{exc.part}") from None
    except BlowupError as exc:
        raise SpecFormatError(str(exc), f"{path}.phi") from None
    return marked, stab, depth, ball


def emit_blowup_spec(marked: Point, stab: StabilizerData, depth: int, ball: int) -> str:
    return _dumps(blowup_spec_to_data(marked, stab, depth, ball))


def parse_blowup_spec(text: str) -> tuple[Point, StabilizerData, int, int]:
    return blowup_spec_from_data(_loads(text))


# ---------------------------------------------------------------------------


# Each file kind's parser and the emitter of what it returns, looked up by
# name at call time, so a replaced parser or emitter is the one used.
FILE_KINDS: dict[str, tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    "plmap": (lambda text: parse_plmap(text), lambda f: emit_plmap(f)),
    "leafspace": (lambda text: parse_leafspace(text), lambda space: emit_leafspace(space)),
    "action": (lambda text: parse_action(text), lambda gens: emit_action(gens)),
    "blowup": (lambda text: parse_blowup_spec(text), lambda spec: emit_blowup_spec(*spec)),
}


def is_canonical(text: str, kind: str) -> bool:
    """Whether re-serializing ``text`` reproduces it byte for byte."""
    if kind not in FILE_KINDS:
        raise ValueError(f"unknown schema kind {kind!r}")
    parse, emit = FILE_KINDS[kind]
    return emit(parse(text)) == text
