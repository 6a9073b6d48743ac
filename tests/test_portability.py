"""Source-level guards, read from the package's tokens.

The package uses only ``Fraction``'s public API.  ``pyproject.toml`` allows
Python 3.10+, and ``Fraction``'s private names differ between versions: 3.12
adds ``_from_coprime_ints`` and drops the ``_normalize`` argument, for
example.  The integer fast paths must go through ``numerator``,
``denominator`` and ``Fraction(n, d)`` instead.

Only ``plmap.py`` names a map's integer kernel, the slots of its integer
record and ``_record``, which returns the record's layout; other modules
read ints through ``PLMap`` methods (``_eval``, ``_preimage``, ``_tail``,
``_breaks``) and splice maps with ``plmap._splice``.  Only ``action.py`` names
``Homeo._events`` and ``Homeo._overlaps``, the ray data a homeo keeps: other
modules read it through ``_ray_events``, ``overlap_ray`` and
``induced_germ``, and the events are a table of integer pairs that
``_ray_events`` sorts from ``_ray_event_set``.  Only ``leafspace.py`` names
``Embedding.point_at``, and only ``action.py`` names ``_line_image``: other
modules probe a homeo along an embedded line through ``action.line_image``,
its wrapper, and inside ``action.py`` the overlap scan, the witness search
and an explicit-threshold induced germ's two samples call ``_line_image``
itself.  Only ``blowup.py`` names
``StabilizerData.twist``: a word's move of an orbit point is computed in
one place, the kernel ``_move_keys``, which keeps it.  Only ``blowup.py``
names the kernel, the space's orbit key index and the methods that turn a
blown point into a key and back, so only it knows the key layout.  Only
``action.py`` and ``blowup.py`` name ``Word._reduced``, which builds a word
from letters it trusts to be reduced: every other module builds words
through the reducing constructor.  Every guarded name is a code token of
some package module, so no guard watches a name that is gone.  Only
``serialize.py`` uses ``"branch_map"`` and ``"branch_pl"`` as keys: it
writes and reads a homeo's JSON record for every other module.

The tests' references live in one module, ``tests/reference.py``, which
names none of the package's integer internals, the ray event table among
them, so a cross-check never runs the code it checks.  No test module imports another.
"""

import ast
import io
import tokenize
from pathlib import Path

import germkit
from germkit.plmap import PLMap

PRIVATE = {"_normalize", "_from_coprime_ints", "_numerator", "_denominator"}
PACKAGE = Path(germkit.__file__).parent


def name_uses(source: str, names: set[str]) -> list[tuple[int, str]]:
    """``(line, name)`` for each code token that is one of ``names``;
    comments and strings are not code."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(t.start[0], t.string) for t in tokens if t.type == tokenize.NAME and t.string in names]


def test_no_private_fraction_api():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in modules
        for line, name in name_uses(path.read_text(), PRIVATE)
    ]
    assert found == []


def test_scanner_sees_attributes_and_keywords():
    source = (
        "x = Fraction(1, 2, _normalize=False)\n"
        "y = Fraction._from_coprime_ints(1, 2)\n"
        "z = q._numerator + q._denominator  # q._numerator\n"
        "w = bounds.max_denominator, '_numerator'\n"
    )
    assert name_uses(source, PRIVATE) == [
        (1, "_normalize"), (2, "_from_coprime_ints"), (3, "_numerator"), (3, "_denominator"),
    ]


def uses_outside(owner: str, names: set[str]) -> list[str]:
    """``path:line`` of each code use of ``names`` in a package module
    other than ``owner``."""
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != owner)
    assert modules
    return [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line, _ in name_uses(path.read_text(), names)
    ]


def test_only_leafspace_names_point_at():
    assert uses_outside("leafspace.py", {"point_at"}) == []


def test_only_action_names_the_integer_probe():
    assert uses_outside("action.py", {"_line_image"}) == []


def test_only_blowup_names_twist():
    assert uses_outside("blowup.py", {"twist"}) == []


def test_only_blowup_names_the_kernel_and_its_keys():
    assert uses_outside("blowup.py", {"_move_keys", "_orbit_keys", "_key", "_from_key"}) == []


def test_only_action_and_blowup_build_trusted_words():
    """``Word._reduced`` trusts its letters to be reduced, so modules that
    read words from outside (``serialize``, ``cli``, ``fuzz``, ``suites``)
    build them only through the reducing constructor."""
    found = uses_outside("action.py", {"_reduced"})
    blowup = f"{Path('germkit', 'blowup.py')}:"
    assert [use for use in found if not use.startswith(blowup)] == []
    assert any(use.startswith(blowup) for use in found)


def test_only_action_names_the_kept_ray_data():
    assert uses_outside("action.py", {"_events", "_overlaps"}) == []


PLMAP_INTERNALS = {
    "_kernel", "_build_kernel", "_record",
    "_pairs", "_lsn", "_lsd", "_rsn", "_rsd", "_ton", "_tod",
}


def test_only_plmap_names_the_kernel_and_the_record():
    assert uses_outside("plmap.py", PLMAP_INTERNALS) == []


def test_plmap_internals_are_its_record_and_kernel():
    """The guarded names are exactly the kernel's and the record's slots
    and the two methods that return them whole."""
    fields = {"_breakpoints", "_values", "_left_slope", "_right_slope", "_tail_offset"}
    assert PLMAP_INTERNALS == set(PLMap.__slots__) - fields | {"_build_kernel", "_record"}


TESTS = Path(__file__).parent
INTEGER_INTERNALS = {
    "_eval", "_preimage", "_record", "_kernel", "_build_kernel", "_pairs", "_tail", "_breaks",
    "_of", "_n", "_d", "_sn", "_sd", "_on", "_od", "_h", "_key", "_from_key", "_ascend",
    "_apply_pairs", "_line_image", "_ray_event_set", "_ray_events", "_move_keys",
    "_orbit_keys",
}


def test_the_reference_model_reads_no_integer_internal():
    assert name_uses((TESTS / "reference.py").read_text(), INTEGER_INTERNALS) == []


def test_references_stay_in_one_module():
    """No test module imports a ``test_*`` module, and only
    ``reference.py`` defines ``oracle_*`` or ``Oracle*`` names."""
    found = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}: imports {a.name}"
                          for a in node.names if a.name.startswith("test_")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
                found.append(f"{path.name}:{node.lineno}: imports {node.module}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name.startswith(("oracle_", "Oracle")) and path.name != "reference.py":
                found.append(f"{path.name}:{node.lineno}: defines {name}")
    assert found == []


HOMEO_RECORD_KEYS = {"branch_map", "branch_pl"}


def record_keys(source: str, keys: set[str]) -> list[int]:
    """The line of each dict-display key or subscript key in ``source`` that
    is a string constant in ``keys``; other strings, such as messages, are
    not keys."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            named = node.keys
        elif isinstance(node, ast.Subscript):
            named = [node.slice]
        else:
            continue
        lines += [k.lineno for k in named if isinstance(k, ast.Constant) and k.value in keys]
    return lines


def test_key_scanner_sees_dict_and_subscript_keys_only():
    source = (
        'a = {"branch_map": {}, **rest}\n'
        'b = row["branch_pl"]\n'
        'c = f"branch_pl does not cover {b!r}", "branch_map"\n'
        'd = h.branch_map[b]\n'
    )
    assert record_keys(source, HOMEO_RECORD_KEYS) == [1, 2]


def test_only_serialize_names_the_homeo_record_keys():
    """A homeo's JSON record is written and read in ``serialize.py`` alone;
    ``action.py``'s error messages name the two maps, but not as keys."""
    found = {
        path.name: record_keys(path.read_text(), HOMEO_RECORD_KEYS)
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert found.pop("serialize.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def guarded_names() -> set[str]:
    """Every name the guards above watch: the two internals sets and the
    set each ``uses_outside`` call in this module passes."""
    found = INTEGER_INTERNALS | PLMAP_INTERNALS
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "uses_outside":
            names = node.args[1]
            found |= globals()[names.id] if isinstance(names, ast.Name) else ast.literal_eval(names)
    return found


def test_guarded_names_exist_in_the_package():
    guarded = guarded_names()
    call_sites = {"point_at", "twist", "_reduced", "_events", "_overlaps", "_orbit_keys"}
    assert call_sites <= guarded
    modules = sorted(PACKAGE.rglob("*.py"))
    tokens = {name for path in modules for _, name in name_uses(path.read_text(), guarded)}
    assert sorted(guarded - tokens) == []
