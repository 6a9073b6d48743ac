"""Property suites and deterministic reports.

Each suite checks one claim and is one :class:`Suite` record.
``cases(config, targets)`` yields ``(count, case)`` pairs: random cases,
sampled homeomorphisms of each target, or exhaustive word balls; ``count``
is what the case adds to the report's case total.  ``check(case)`` is the
suite's one predicate: ``None``, or a JSON counterexample payload.
``decode(config, targets, payload)`` rebuilds the smallest case that still
contains the counterexample.  :func:`run_suite` stops at the first payload,
and :func:`replay` is ``check(decode(...)) is not None``: a counterexample
replays through the predicate that flagged it.  A suite may also carry a
:class:`Fault`, a broken bundled example its check must catch; one that
slips through fails the report with a payload that replays by running the
fault case again.

Canonical report JSON is byte-identical across runs with the same
configuration and seed; wall-clock timings stay on the object, outside it.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Iterator

from . import serialize
from .action import (
    ActionError,
    GermMismatchError,
    Homeo,
    Word,
    apply_homeo,
    extend_space_for_action,
    induced_germ,
    letter_homeo,
    line_image,
    moved_point_witness,
    overlap_ray,
    reduced_words,
    validate_homeo,
    word_germ,
    word_homeo,  # perfbench/check_gate.py reads suites.word_homeo too
    _apply_pairs,
    _ray_events,
)
from .blowup import (
    BlownPoint,
    BlowupSpace,
    CosetTableError,
    StabilizerGeneratorError,
    check_stabilizer_fits,
    injectivity_certificate,
    positive_ray_orbit_search,
    stabilizer_check,
    validate_alpha_action,
)
from .examples import STANDARD, Bundle, bundle
from .fuzz import CaseGen
from .germ import Germ, OrderSign, compare, eventual_comparison_bound
from .leafspace import Embedding, LeafSpace, Point, Side, root_embedding
from .plmap import reflect
from .rationals import format_rational


class SuiteError(ValueError):
    """Unknown suite or unusable configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all suites; identical config and seed means an
    identical canonical report."""

    seed: int = 0
    cases: int = 500
    word_ball: int = 4
    stabilizer_ball: int = 5
    max_word_length: int = 8
    plain_samples: int = 100
    interval_samples: int = 20
    examples: tuple[str, ...] = STANDARD
    leafspace_path: str | None = None
    action_path: str | None = None
    blowup_path: str | None = None
    auto_extend: int = 0

    def to_data(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    suite: str
    claim: str
    passed: bool
    cases: int
    counterexample: dict | None
    config: SuiteConfig
    elapsed: float = 0.0

    def to_data(self) -> dict:
        return {
            "suite": self.suite,
            "claim": self.claim,
            "passed": self.passed,
            "cases": self.cases,
            "counterexample": self.counterexample,
            "config": self.config.to_data(),
        }

    def canonical_json(self) -> str:
        """Deterministic serialization: no timings, fixed key order."""
        return json.dumps(self.to_data(), indent=2) + "\n"


Case = tuple
Cases = Iterator[tuple[int, Case]]
Payload = dict


@dataclass(frozen=True)
class Fault:
    """A broken bundled example whose case the suite's check must flag.

    ``case`` builds the case from the bundle; ``caught`` decides whether
    the payload the check returned is the expected catch.
    """

    example: str
    expected: str
    case: Callable[[Bundle, SuiteConfig], Case]
    caught: Callable[[Payload], bool] = lambda payload: True


@dataclass(frozen=True)
class Suite:
    """One claim, its case stream, its check and its payload decoder."""

    claim: str
    cases: Callable[[SuiteConfig, list[Bundle]], Cases]
    check: Callable[[Case], Payload | None]
    decode: Callable[[SuiteConfig, list[Bundle], Payload], Case]
    fault: Fault | None = None

    def fault_check(self, config: SuiteConfig) -> Payload | None:
        """``None`` when the check catches the bundled fault as expected."""
        found = self.check(self.fault.case(bundle(self.fault.example), config))
        if found is not None and self.fault.caught(found):
            return None
        return {"target": self.fault.example, "expected": self.fault.expected, "got": found}


# ---------------------------------------------------------------------------
# Targets: bundled examples or user files


def _load(file: str, kind: str, noted: list[str]) -> Any:
    """Read ``file`` as UTF-8 and parse it as a ``kind`` of
    :data:`serialize.FILE_KINDS` once; note it in ``noted`` if it is not
    canonical.  Text that is not UTF-8 is a format error at ``$``."""
    parse, emit = serialize.FILE_KINDS[kind]
    try:
        with open(file, encoding="utf-8") as fh:
            text = fh.read()
        parsed = parse(text)
    except UnicodeDecodeError as exc:
        raise serialize.SpecFormatError(f"not UTF-8 text: {exc}", "$", file) from None
    except serialize.SpecFormatError as exc:
        raise serialize.SpecFormatError(exc.message, exc.path, file) from None
    if emit(parsed) != text:
        noted.append(file)
    return parsed


def _file_target(config: SuiteConfig) -> Bundle:
    """Load the user files once; reject files that parse alone but do not fit."""
    noted: list[str] = []
    space = _load(config.leafspace_path, "leafspace", noted)
    generators = _load(config.action_path, "action", noted)
    positive = space.side is Side.POSITIVE
    if positive:  # file coordinates to internal ones, as for the departures
        generators = {
            name: Homeo(h.branch_map, {b: reflect(f) for b, f in h.branch_pl.items()})
            for name, h in generators.items()
        }
    try:
        space = extend_space_for_action(space, generators, config.auto_extend)
    except ActionError as exc:
        raise serialize.SpecFormatError(str(exc), "$.generators", config.action_path) from None
    for i, (name, h) in enumerate(generators.items()):
        problem = validate_homeo(space, h)
        if problem is not None:
            raise serialize.SpecFormatError(
                f"generator {name!r} is not a homeomorphism of the leaf space: {problem}",
                f"$.generators[{i}]", config.action_path,
            )
    if not config.blowup_path:
        return Bundle("file", space, generators, noncanonical=tuple(noted))
    marked, stab, depth, ball = _load(config.blowup_path, "blowup", noted)
    if positive:
        marked = Point(marked.branch, -marked.coord)
    if marked.branch not in space.branches:
        raise serialize.SpecFormatError(
            f"marked branch {marked.branch!r} is not declared in the leaf space",
            "$.marked.branch", config.blowup_path,
        )
    try:
        check_stabilizer_fits(space, generators, space.canonical(marked), stab)
    except StabilizerGeneratorError as exc:
        path = f"$.K_generators[{exc.index}]"
        raise serialize.SpecFormatError(str(exc), path, config.blowup_path) from None
    except CosetTableError as exc:
        path = f"$.coset_table[{list(stab.coset_table).index(exc.key)}].word"
        raise serialize.SpecFormatError(str(exc), path, config.blowup_path) from None
    return Bundle("file", space, generators, marked, stab, depth, ball, tuple(noted))


def _blowup_targets(targets: list[Bundle]) -> list[Bundle]:
    """The targets that carry blow-up data; there must be one."""
    blown = [t for t in targets if t.has_blowup]
    if not blown:
        raise SuiteError("no target with blow-up data (file targets need a blow-up spec file)")
    return blown


def resolve_targets(config: SuiteConfig, need_blowup: bool = False) -> list[Bundle]:
    """The actions suites run against: user files when given, else bundles.

    Each file is read and parsed once.  In a ``"side": "positive"`` space
    every chart map ``f`` becomes ``x -> -f(-x)`` and the marked coordinate
    is negated, as the departures are.  Then, after ``auto_extend``, every
    generator must be a homeomorphism of the leaf space, the marked branch
    must be declared, every letter of a stabilizer generator or of a
    ``coset_table`` row must be a generator, and every stabilizer generator
    must fix the marked point.  A failure raises
    :class:`serialize.SpecFormatError` naming the file and its JSON path.
    The target's ``noncanonical`` lists the files that would re-serialize
    differently.  A blow-up spec needs both other files.
    """
    if config.leafspace_path or config.action_path or config.blowup_path:
        if not (config.leafspace_path and config.action_path):
            raise SuiteError("file targets need both a leaf-space and an action file")
        targets = [_file_target(config)]
    else:
        targets = [bundle(name) for name in config.examples]
    return _blowup_targets(targets) if need_blowup else targets


def _payload_target(targets: list[Bundle], payload: Payload) -> Bundle:
    by_name, name = {t.name: t for t in targets}, payload["target"]
    if name not in by_name:
        raise SuiteError(f"payload target {name!r} is not a resolved target {list(by_name)}")
    return by_name[name]


# ---------------------------------------------------------------------------
# Germ-level suites


def _germ_group_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    gen = CaseGen(config.seed)
    maps = [gen.plmap() for _ in range(config.cases + 2)]
    for i in range(config.cases):
        yield 1, (i, *maps[i : i + 3])


def _germ_group_check(case: Case) -> Payload | None:
    i, f, g, h = case
    gf, gg, gh = Germ.of(f), Germ.of(g), Germ.of(h)
    if (
        (gf * gg) * gh == gf * (gg * gh)
        and gf * Germ.identity() == gf
        and Germ.identity() * gf == gf
        and gf * ~gf == Germ.identity()
        and ~gf * gf == Germ.identity()
        and Germ.of(f * g) == gf * gg
    ):
        return None
    return {"case": i, "maps": [serialize.plmap_to_data(m) for m in (f, g, h)]}


def _quotient_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    gen = CaseGen(config.seed)
    for i in range(config.cases):
        f, g = gen.plmap(), gen.plmap()
        cut_f, cut_g = gen.fraction(), gen.fraction()
        yield 1, (i, f, g, gen.mutate_below(f, cut_f), gen.mutate_below(g, cut_g))


def _quotient_check(case: Case) -> Payload | None:
    i, f, g, f2, g2 = case
    expected = Germ.of(f * g)
    if Germ.of(f2) * Germ.of(g2) == expected and Germ.of(f2 * g2) == expected:
        return None
    return {"case": i, "maps": [serialize.plmap_to_data(m) for m in (f, g, f2, g2)]}


def _maps_case(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    maps = (serialize.plmap_from_data(d, f"$.maps[{i}]") for i, d in enumerate(payload["maps"]))
    return (payload["case"], *maps)


def _cone_oracle(u: Germ) -> bool:
    """Eventual comparison against the diagonal, far beyond the crossing."""
    f = u.representative()
    base = eventual_comparison_bound(u)
    return f(base + 1) > base + 1 and f(base + 1000) > base + 1000


def _order_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    gen = CaseGen(config.seed)
    for i in range(config.cases):
        yield 1, (i, gen.germ(), gen.germ(), gen.germ())


def _order_check(case: Case) -> Payload | None:
    i, u, v, w = case
    forward = compare(u, v)
    signs = {forward, compare(v, u)}
    trichotomy = (
        (forward is OrderSign.EQ) == (u == v)
        and (signs in ({OrderSign.EQ}, {OrderSign.LT, OrderSign.GT}))
    )
    le = lambda a, b: compare(a, b) in (OrderSign.LT, OrderSign.EQ)
    lo, mid, hi = sorted((u, v, w), key=lambda g: (g.slope, g.offset))
    transitivity = not (le(lo, mid) and le(mid, hi)) or le(lo, hi)
    invariance = forward == compare(w * u, w * v)
    cone = (compare(u, Germ.identity()) is OrderSign.GT) == _cone_oracle(u)
    if trichotomy and transitivity and invariance and cone:
        return None
    return {"case": i, "germs": [serialize.germ_to_data(x) for x in (u, v, w)]}


def _order_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    germs = (serialize.germ_from_data(d, f"$.germs[{i}]") for i, d in enumerate(payload["germs"]))
    return (payload["case"], *germs)


# ---------------------------------------------------------------------------
# Action-level suites


def _sample_homeos(target: Bundle, gen: CaseGen, count: int) -> list[tuple[str, Homeo]]:
    """Generator homeos plus seeded random ones on the target's space."""
    out: list[tuple[str, Homeo]] = []
    for name in sorted(target.generators):
        out.append((name, target.generators[name]))
        out.append((f"{name}^-1", letter_homeo(target.generators, name, -1)))
    while len(out) < count:
        out.append((f"random[{len(out)}]", gen.homeo(target.space)))
    return out


def _homeo_payload(target: Bundle, label: str, h: Homeo) -> Payload:
    return {"target": target.name, "homeo": label, **serialize.homeo_to_data(h)}


def _embedded_homeo_cases(config: SuiteConfig, targets: list[Bundle], count: int) -> Cases:
    """``(target, root embedding, label, homeo)`` for each sampled homeo."""
    for target in targets:
        e = root_embedding(target.space)
        for label, h in _sample_homeos(target, CaseGen(config.seed), count):
            yield 1, (target, e, label, h)


def _embedded_homeo_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    label, h = payload["homeo"], serialize.homeo_from_data(payload)
    target = _payload_target(targets, payload)
    return target, root_embedding(target.space), label, h


def _overlap_sound(space: LeafSpace, h: Homeo, e: Embedding) -> bool:
    t = overlap_ray(space, h, e)
    base = Fraction(0) if t is None else t
    if any(line_image(space, h, e, base + d) is None for d in (Fraction(1, 3), 1, 17)):
        return False
    if t is not None:
        # The image predicate is constant on the gap between t and the ray
        # event below it, so t and that gap's midpoint decide minimality
        # exactly.
        tn, td = t.numerator, t.denominator
        below = [ev for ev in _ray_events(space, h, e) if ev[0] * td < tn * ev[1]]
        gap_mid = (Fraction(*below[-1]) + t) / 2 if below else t - 1
        if line_image(space, h, e, t) is not None and line_image(space, h, e, gap_mid) is not None:
            return False  # the threshold was not minimal
    return True


def _overlap_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    yield from _embedded_homeo_cases(config, targets, max(8, config.cases // 10))
    if not config.leafspace_path:
        # line swaps: the finite-threshold case on fresh random spaces
        gen = CaseGen(config.seed)
        for i in range(max(4, config.cases // 25)):
            yield 1, ("swap", i, *gen.swap_pair())


def _overlap_check(case: Case) -> Payload | None:
    if case[0] != "swap":
        target, e, label, h = case
        return None if _overlap_sound(target.space, h, e) else _homeo_payload(target, label, h)
    _, i, space, swap, departure = case
    e = root_embedding(space)
    if (
        _overlap_sound(space, swap, e)
        and overlap_ray(space, swap, e) == departure
        and induced_germ(space, swap, e).is_identity()
    ):
        return None
    return {"target": "swap", "index": i}


def _overlap_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    if payload["target"] != "swap":
        return _embedded_homeo_decode(config, targets, payload)
    gen = CaseGen(config.seed)
    for _ in range(payload["index"]):
        gen.swap_pair()
    return ("swap", payload["index"], *gen.swap_pair())


def _threshold_check(case: Case) -> Payload | None:
    target, e, label, h = case
    t = overlap_ray(target.space, h, e)
    base = Fraction(0) if t is None else t
    low = induced_germ(target.space, h, e, threshold=base)
    high = induced_germ(target.space, h, e, threshold=base + 10)
    default = induced_germ(target.space, h, e)
    return None if low == high == default else _homeo_payload(target, label, h)


def _homomorphism_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    for j, target in enumerate(targets):
        if not target.generators:
            continue
        gen = CaseGen(config.seed)
        e = root_embedding(target.space)
        names = sorted(target.generators)
        share, extra = divmod(config.cases, len(targets))
        for i in range(share + (j < extra)):
            w1 = gen.word(names, config.max_word_length)
            w2 = gen.word(names, config.max_word_length)
            yield 1, (target, e, i, w1, w2)


def _homomorphism_check(case: Case) -> Payload | None:
    """A case fails when the words' germs do not multiply, or when one
    word's composite germ disagrees with its letters' product."""
    target, e, i, w1, w2 = case
    space, gens = target.space, target.generators
    payload = {"target": target.name, "case": i, "words": [str(w1), str(w2)]}
    try:
        product = word_germ(space, gens, w1 * w2, e)
        germ1 = word_germ(space, gens, w1, e)
        split = germ1 * word_germ(space, gens, w2, e)
        inverse_ok = word_germ(space, gens, ~w1, e) == ~germ1
    except GermMismatchError:
        return payload
    return None if product == split and inverse_ok else payload


def _homomorphism_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    target, words = _payload_target(targets, payload), payload["words"]
    if not isinstance(words, list) or len(words) != 2:
        raise TypeError(f"words must be a list of two words, got {words!r}")
    w1, w2 = map(Word.parse, words)
    return target, root_embedding(target.space), payload["case"], w1, w2


_WITNESS_CUTS = (Fraction(0), Fraction(10**3), Fraction(10**6))


def _nontriviality_check(case: Case) -> Payload | None:
    target, e, label, h = case
    witnesses = [moved_point_witness(target.space, h, e, n) for n in _WITNESS_CUTS]
    if all(w is not None for w in witnesses):
        if induced_germ(target.space, h, e).is_identity():
            return _homeo_payload(target, label, h)
    for n, m in zip(_WITNESS_CUTS, witnesses):
        if m is not None and not (
            m > n and line_image(target.space, h, e, m) != (m.numerator, m.denominator)
        ):
            return _homeo_payload(target, label, h)
    return None


# ---------------------------------------------------------------------------
# Blow-up suites


def _plain_samples(space: BlowupSpace, ball: int, want: int) -> list[BlownPoint]:
    """Plain points that stay plain under every word of the ball.

    Candidates are spread along every branch below its departure and along
    the root ray; any candidate whose ball-image meets the blown orbit is
    discarded, so the action-law check never escapes the expanded orbit.
    Candidates go in chunks of the number still wanted, each moved by one
    homeo at a time in one :func:`~germkit.action._apply_pairs` call,
    dropping orbit hits; so a candidate is moved by exactly the homeos a
    one-at-a-time loop would apply.
    """
    base = space.base
    words = reduced_words(sorted(space.generators), ball)
    homeos = [space.word_homeo(w) for w in words]
    candidates: list[Point] = []
    offsets = [Fraction(n, 7) for n in range(1, 4 * want, 2)]
    top = base._departures[-1] if base._departures else Fraction(0)
    for off in offsets:
        candidates.append(Point(base.root, top + off))
        for name in sorted(base.branches):
            dep = base.departure(name)
            anchor = dep if dep is not None else Fraction(0)
            candidates.append(Point(name, anchor - off))
    orbit = {(p.branch, p._n, p._d) for p in space.orbit}
    out: list[BlownPoint] = []
    seen: set[Point] = set()
    start = 0
    while len(out) < want and start < len(candidates):
        chunk = candidates[start : start + want - len(out)]
        start += len(chunk)
        points = []
        for cand in chunk:
            point = base.canonical(cand)
            if point not in seen and point not in space.orbit:
                seen.add(point)
                points.append(point)
        for h in homeos:
            moved = _apply_pairs(base, h, [(p.branch, p._n, p._d) for p in points])
            points = [p for p, image in zip(points, moved) if image not in orbit]
        out += map(BlownPoint, points)
    return out


def _interval_samples(space: BlowupSpace, ball: int, want: int) -> list[BlownPoint]:
    """Interval points shallow enough that ball words cannot escape."""
    budget = max(0, space.depth - ball)
    points = sorted(
        (p for p, w in space.orbit.items() if len(w) <= budget),
        key=lambda p: (p.branch, p.coord),
    )
    # interior heights first: the endpoints are fixed by every twist
    heights = [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 5),
        Fraction(4, 5),
        Fraction(0),
        Fraction(1),
    ]
    out: list[BlownPoint] = []
    for h in heights:
        for p in points:
            out.append(BlownPoint(p, h))
            if len(out) >= want:
                return out
    return out


def _action_law_samples(space: BlowupSpace, config: SuiteConfig) -> list[BlownPoint]:
    return _plain_samples(space, config.word_ball, config.plain_samples) + _interval_samples(
        space, config.word_ball, config.interval_samples
    )


def _action_law_case(target: Bundle, config: SuiteConfig, plain: bool = True) -> Case:
    space = target.blowup
    if plain:
        samples = _action_law_samples(space, config)
    else:
        samples = _interval_samples(space, config.word_ball, config.interval_samples)
    return target, samples, config.word_ball


def _action_law_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    for target in _blowup_targets(targets):
        case = _action_law_case(target, config)
        yield len(case[1]), case


def _action_law_check(case: Case) -> Payload | None:
    target, samples, ball = case
    violation = validate_alpha_action(target.blowup, samples, ball)
    if violation is None:
        return None
    q = violation.sample
    return {
        "target": target.name,
        "outer": str(violation.outer),
        "inner": str(violation.inner),
        "sample": {
            "point": serialize.point_to_data(q.point),
            "height": None if q.height is None else format_rational(q.height),
        },
    }


def _action_law_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    target = _payload_target(_blowup_targets(targets), payload)
    sample = payload["sample"]
    point, height = serialize.point_from_data(sample["point"], "$.sample.point"), sample["height"]
    if height is not None:
        height = serialize._rational(height, "$.sample.height")
    q = BlownPoint(point, height)
    ball = len(Word.parse(payload["outer"])) + len(Word.parse(payload["inner"]))
    return target, [q], ball


def _stabilizer_case(target: Bundle, config: SuiteConfig) -> Case:
    return target, config.stabilizer_ball


def _stabilizer_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    for target in _blowup_targets(targets):
        yield 1, _stabilizer_case(target, config)


def _stabilizer_check(case: Case) -> Payload | None:
    target, ball = case
    fixing = stabilizer_check(target.blowup, ball)
    return None if fixing is None else {"target": target.name, "fixing_word": str(fixing)}


def _stabilizer_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    target = _payload_target(_blowup_targets(targets), payload)
    return target, len(Word.parse(payload["fixing_word"]))


_ORBIT_CUTS = (Fraction(-10**6), Fraction(0), Fraction(5))


def _orbit_limit_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    for target in _blowup_targets(targets):
        for n in _ORBIT_CUTS:
            yield 1, (target, target.ball or config.word_ball, n)


def _orbit_limit_check(case: Case) -> Payload | None:
    """The search reads the twisted action, so the check reads the base
    action: the found word's homeo must carry the marked point over the cut."""
    target, ball, n = case
    space, e = target.blowup, root_embedding(target.space)
    found = positive_ray_orbit_search(space, e, n, min(ball, space.depth))
    if found is None:
        return None  # exhaustion is a permitted outcome, not a refutation
    h = word_homeo(target.space, target.generators, found)
    image = apply_homeo(target.space, h, space.marked)
    if e.contains(target.space, image) and image.coord > n:
        return None
    return {"target": target.name, "cut": format_rational(n), "word": str(found)}


def _orbit_limit_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    target = _payload_target(_blowup_targets(targets), payload)
    return target, target.ball or config.word_ball, serialize._rational(payload["cut"], "$.cut")


def _injectivity_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    """One case per target; it counts the nontrivial reduced words of the
    ball, ``2r (2r - 1)^(l - 1)`` of each length ``l`` on ``r`` generators."""
    ball = config.stabilizer_ball
    for target in _blowup_targets(targets):
        r = len(target.generators)
        yield sum(2 * r * (2 * r - 1) ** (l - 1) for l in range(1, ball + 1)), (target, ball)


def _injectivity_check(case: Case) -> Payload | None:
    target, ball = case
    failing = injectivity_certificate(target.blowup, root_embedding(target.space), ball)
    return None if failing is None else {"target": target.name, "word": str(failing)}


def _injectivity_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    return _payload_target(_blowup_targets(targets), payload), len(Word.parse(payload["word"]))


# ---------------------------------------------------------------------------
# Structural suite


def _structural_cases(config: SuiteConfig, targets: list[Bundle]) -> Cases:
    gen = CaseGen(config.seed)
    for i in range(min(config.cases, 100)):
        yield 1, ("random", i, gen.leafspace())
    for target in targets:
        yield 0, ("bundle", target)
    yield 0, ("determinism", replace(config, cases=25))


def _structural_check(case: Case) -> Payload | None:
    kind = case[0]
    if kind == "random":
        _, i, space = case
        text = serialize.emit_leafspace(space)
        if serialize.emit_leafspace(serialize.parse_leafspace(text)) == text:
            return None
        return {"case": i, "kind": "roundtrip", "leafspace": serialize.leafspace_to_data(space)}
    if kind == "bundle":
        b = case[1]
        text = serialize.emit_action(b.generators)
        if serialize.emit_action(serialize.parse_action(text)) != text:
            return {"kind": "roundtrip", "target": b.name}
        if b.marked is not None:
            text = serialize.emit_blowup_spec(b.marked, b.stabilizer, b.depth, b.ball)
            parsed = serialize.parse_blowup_spec(text)
            if serialize.emit_blowup_spec(*parsed) != text:
                return {"kind": "roundtrip-blowup", "target": b.name}
        return None
    small = case[1]
    first = run_suite("germ-group-axioms", small, []).canonical_json()
    second = run_suite("germ-group-axioms", small, []).canonical_json()
    return None if first == second else {"kind": "determinism"}


def _structural_decode(config: SuiteConfig, targets: list[Bundle], payload: Payload) -> Case:
    if "leafspace" in payload:
        leafspace = serialize.leafspace_from_data(payload["leafspace"], "$.leafspace")
        return "random", payload["case"], leafspace
    if payload["kind"] == "determinism":
        return "determinism", replace(config, cases=25)
    return "bundle", _payload_target(targets, payload)


# ---------------------------------------------------------------------------
# Registry


SUITES: dict[str, Suite] = {
    "germ-group-axioms": Suite(
        "tail germs form a group under composition of representatives",
        _germ_group_cases, _germ_group_check, _maps_case,
    ),
    "germ-quotient": Suite(
        "the product germ ignores changes to representatives below any cutoff",
        _quotient_cases, _quotient_check, _maps_case,
    ),
    "order-laws": Suite(
        "eventual dominance is a total, transitive, left-invariant order on germs",
        _order_cases, _order_check, _order_decode,
    ),
    "overlap-rays": Suite(
        "beyond a least threshold the image of the upper ray lies back on the line",
        _overlap_cases, _overlap_check, _overlap_decode,
    ),
    "d-threshold-independence": Suite(
        "the induced germ is the same whatever admissible threshold computes it",
        lambda config, targets: _embedded_homeo_cases(config, targets, max(1, config.cases // 2)),
        _threshold_check, _embedded_homeo_decode,
    ),
    "d-homomorphism": Suite(
        "the induced germ of a concatenated word is the product of the parts' germs",
        _homomorphism_cases, _homomorphism_check, _homomorphism_decode,
    ),
    "d-nontriviality": Suite(
        "moving arbitrarily high line points forces a nontrivial induced germ",
        lambda config, targets: _embedded_homeo_cases(config, targets, max(8, config.cases // 10)),
        _nontriviality_check, _embedded_homeo_decode,
    ),
    "alpha-action-law": Suite(
        "the twisted action is an action: composite words act as composed maps",
        _action_law_cases, _action_law_check, _action_law_decode,
        Fault(
            "e3-coset-fault", "an action-law violation from the corrupted coset table",
            lambda target, config: _action_law_case(target, config, plain=False),
        ),
    ),
    "trivial-stabilizer": Suite(
        "no nontrivial ball word fixes the marked interval midpoint",
        _stabilizer_cases, _stabilizer_check, _stabilizer_decode,
        Fault(
            "e3-phi-fault", "fixing word 'k' from the height-fixing realization",
            _stabilizer_case, lambda payload: payload["fixing_word"] == "k",
        ),
    ),
    "orbit-limit": Suite(
        "an orbit word found over a requested upper ray really lands there",
        _orbit_limit_cases, _orbit_limit_check, _orbit_limit_decode,
    ),
    "injectivity-certificate": Suite(
        "every nontrivial ball word keeps a nontrivial germ through the blown chart",
        _injectivity_cases, _injectivity_check, _injectivity_decode,
    ),
    "structural": Suite(
        "files round-trip; reports are reproducible",
        _structural_cases, _structural_check, _structural_decode,
    ),
}


def _suite(name: str) -> Suite:
    if name not in SUITES:
        raise SuiteError(f"unknown suite {name!r} (known: {', '.join(sorted(SUITES))})")
    return SUITES[name]


def run_suite(name: str, config: SuiteConfig, targets: list[Bundle] | None = None) -> Report:
    """Check every case until the first counterexample, then the bundled fault."""
    suite = _suite(name)
    started = time.perf_counter()
    if targets is None:
        targets = resolve_targets(config)
    checked = 0
    counterexample = None
    for count, case in suite.cases(config, targets):
        checked += count
        counterexample = suite.check(case)
        if counterexample is not None:
            break
    if counterexample is None and suite.fault is not None and not config.leafspace_path:
        counterexample = suite.fault_check(config)
    elapsed = time.perf_counter() - started
    return Report(
        name, suite.claim, counterexample is None, checked, counterexample, config, elapsed
    )


def replay(name: str, config: SuiteConfig, counterexample: dict) -> bool:
    """Re-run a single failing case; True means it still fails.  A payload
    the suite cannot decode raises :class:`SuiteError`."""
    suite = _suite(name)
    if not isinstance(counterexample, dict):
        raise SuiteError(
            f"suite {name!r} cannot decode its counterexample: {counterexample!r} is not a mapping"
        )
    if "expected" in counterexample:
        if suite.fault is None:
            raise SuiteError(f"suite {name!r} has no bundled fault to replay")
        return suite.fault_check(config) is not None
    targets = resolve_targets(config)
    try:
        case = suite.decode(config, targets, counterexample)
    except (KeyError, TypeError, AttributeError, IndexError, serialize.SpecFormatError) as exc:
        raise SuiteError(f"suite {name!r} cannot decode its counterexample: {exc!r}") from None
    return suite.check(case) is not None
