"""The reference model: plain, slow ``Fraction`` bodies of each layer, from
``PLMap`` make, eval, compose, check and agree-on-ray, through germs, points,
``apply_homeo``, the overlap scan, the witness search, the scanning induced
germ and words built from the identity, to the per-point twisted action and
the ordered law loop.

Each body is the code a faster route replaced, and the tests compare that
route against it (differential testing).  A body here reads the package
only through public constructors, data and functions, never through the
integer internals it checks: ``tests/test_portability.py`` keeps this
module off them.  A change that retires a body moves it here.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction as F

from germkit import action
from germkit.action import (
    FULL_LINE, ActionError, GermMismatchError, Homeo, Word, apply_homeo, compose_homeo,
    identity_homeo, letter_homeo, reduced_words, validate_homeo,
)
from germkit.blowup import (
    ActionLawViolation, BlownPoint, BlowupError, OrbitEscapeError, alpha_apply,
)
from germkit.fuzz import MAX_MAGNITUDE, CaseGen
from germkit.germ import Germ, OrderSign
from germkit.leafspace import LeafSpaceError, Point, Side
from germkit.plmap import InvalidMapError, PLMap, _frac, _splice
from germkit.rationals import format_rational
from support import field_dict


# -- PL maps ---------------------------------------------------------------
def oracle_eval(f, x):
    """``f(x)`` by the ``Fraction`` formulas that evaluation used before the
    integer kernel."""
    x = F(x)
    bps = f.breakpoints
    if not bps or x >= bps[-1]:
        return f.right_slope * x + f.tail_offset
    if x <= bps[0]:
        return f.values[0] + f.left_slope * (x - bps[0])
    i = bisect_right(bps, x) - 1
    x0, x1 = bps[i], bps[i + 1]
    y0, y1 = f.values[i], f.values[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def oracle_make(points, left_slope, right_slope, offset=None):
    """``PLMap.make`` as it was before the integer canonicalizer: checks and
    merges pieces with ``Fraction`` slopes.  The offset is read with
    ``_frac``, as ``make`` reads it, so that a float raises ``TypeError``."""
    pts = [(F(x), F(y)) for x, y in points]
    ls, rs = F(left_slope), F(right_slope)
    if ls <= 0 or rs <= 0:
        raise InvalidMapError("tail slopes must be positive")
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x0 >= x1:
            raise InvalidMapError(f"breakpoints not strictly increasing at {format_rational(x1)}")
        if y0 >= y1:
            raise InvalidMapError(f"values not strictly increasing at {format_rational(x1)}")
    if not pts:
        if offset is None:
            raise InvalidMapError("an affine map needs an explicit offset")
        if ls != rs:
            raise InvalidMapError("map without breakpoints must have equal tail slopes")
        return PLMap((), (), ls, rs, _frac(offset))
    tail = pts[-1][1] - rs * pts[-1][0]
    if offset is not None and _frac(offset) != tail:
        raise InvalidMapError(
            f"offset {format_rational(_frac(offset))} inconsistent with tail "
            f"{format_rational(tail)}"
        )
    slopes = [ls]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        slopes.append((y1 - y0) / (x1 - x0))
    slopes.append(rs)
    kept = [pt for i, pt in enumerate(pts) if slopes[i] != slopes[i + 1]]
    if not kept:
        return PLMap((), (), ls, rs, tail)
    xs, ys = zip(*kept)
    return PLMap(tuple(xs), tuple(ys), ls, rs, ys[-1] - rs * xs[-1])


def oracle_compose(f, g):
    """``f * g`` built as composition was before the integer kernel: through
    ``~g``, with every value from :func:`oracle_eval`, canonicalized by
    :func:`oracle_make`."""
    inv = ~g
    xs = sorted({*g.breakpoints, *(oracle_eval(inv, b) for b in f.breakpoints)})
    pts = [(x, oracle_eval(f, oracle_eval(g, x))) for x in xs]
    ls, rs = f.left_slope * g.left_slope, f.right_slope * g.right_slope
    if not pts:
        return oracle_make((), ls, rs, offset=oracle_eval(f, oracle_eval(g, F(0))))
    return oracle_make(pts, ls, rs)


def oracle_check(breakpoints, values, left_slope, right_slope, tail_offset):
    """What the constructor makes of these fields, by the ``Fraction``
    rules: read each field as it does (``_frac``, ``tuple``), rebuild the
    map with :func:`oracle_make` and compare the fields.  The message of the
    first rule broken, or ``None`` when the fields are a canonical map."""
    bps, vals = tuple(map(_frac, breakpoints)), tuple(map(_frac, values))
    ls, rs = _frac(left_slope), _frac(right_slope)
    b = None if tail_offset is None else _frac(tail_offset)
    try:
        if not bps:
            g = oracle_make((), ls, rs, offset=b)
        else:
            g = oracle_make(zip(bps, vals), ls, rs)
            if b != g.tail_offset:
                return "stored tail offset inconsistent with breakpoint data"
    except (InvalidMapError, ZeroDivisionError) as exc:
        return str(exc)
    if (bps, vals, ls, rs, b) != (g.breakpoints, g.values, g.left_slope, g.right_slope,
                                  g.tail_offset):
        return "map is not in canonical form"
    return None


def oracle_agree_on_ray(f, g, start):
    """``agree_on_ray`` as it was before it compared kernels: evaluate both
    maps at every breakpoint above ``start``, at one point of the first piece
    and on the right tails."""
    start = _frac(start)
    marks = sorted({b for b in (*f.breakpoints, *g.breakpoints) if b > start})
    if f.right_slope != g.right_slope:
        return False
    if not marks:
        probe = start + 1
        return f(probe) == g(probe)
    if any(f(b) != g(b) for b in marks):
        return False
    probe = start + (marks[0] - start) / 2
    if f(probe) != g(probe):
        return False
    return f(marks[-1] + 1) == g(marks[-1] + 1)


# -- germs -----------------------------------------------------------------
@dataclass(frozen=True)
class OracleGerm:
    """``Germ`` as it was before it held ints: a frozen dataclass of two
    ``Fraction`` fields with the ``Fraction`` formulas."""

    slope: F
    offset: F

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError("germ slope must be positive")

    def __mul__(self, other):
        return OracleGerm(self.slope * other.slope, self.slope * other.offset + self.offset)

    def __invert__(self):
        return OracleGerm(1 / self.slope, -self.offset / self.slope)

    def is_identity(self):
        return self.slope == 1 and self.offset == 0

    def is_positive(self):
        return self.slope > 1 or (self.slope == 1 and self.offset > 0)

    def __repr__(self):
        return f"Germ({format_rational(self.slope)}, {format_rational(self.offset)})"


def lift(u):
    return OracleGerm(u.slope, u.offset)


def oracle_order(u, v):
    """:func:`compare` on oracle germs."""
    if u == v:
        return OrderSign.EQ
    return OrderSign.LT if (~u * v).is_positive() else OrderSign.GT


def oracle_mul(u, v):
    o = lift(u) * lift(v)
    return Germ(o.slope, o.offset)


def oracle_invert(u):
    o = ~lift(u)
    return Germ(o.slope, o.offset)


def oracle_is_positive(u):
    return lift(u).is_positive()


def oracle_compare(u, v):
    return oracle_order(lift(u), lift(v))


# -- the case generator ----------------------------------------------------
def oracle_fraction_between(gen, lo, hi):
    """``CaseGen.fraction_between`` by its ``Fraction`` formula."""
    den = gen.rng.randint(2, gen.bounds.max_denominator)
    span = hi - lo
    step = gen.rng.randint(1, 2 * den - 1)
    return lo + span * F(step, 2 * den)


def oracle_plmap(gen, max_breakpoints=None):
    """``CaseGen.plmap`` as it was before it built integer points."""
    b = gen.bounds
    count = gen.rng.randint(0, b.max_breakpoints if max_breakpoints is None else max_breakpoints)
    left = gen.positive_slope()
    right = gen.positive_slope()
    if count == 0:
        return PLMap.make((), left, left, offset=gen.fraction())
    xs = sorted(gen.rng.sample(range(-MAX_MAGNITUDE, MAX_MAGNITUDE), count))
    xs = [F(x) + F(gen.rng.randint(0, b.max_denominator - 1), b.max_denominator) for x in xs]
    xs = sorted(set(xs))
    y = gen.fraction()
    ys = [y]
    for _ in range(len(xs) - 1):
        y = y + F(gen.rng.randint(1, 4 * b.max_denominator), b.max_denominator)
        ys.append(y)
    return PLMap.make(zip(xs, ys), left, right)


def oracle_mutate_below(gen, f, cutoff):
    """``CaseGen.mutate_below`` through :func:`oracle_fraction_between`."""
    width = F(gen.rng.randint(1, 8))
    lo = cutoff - 2 * width
    mid_x = oracle_fraction_between(gen, lo, cutoff)
    mid_y = oracle_fraction_between(gen, lo, cutoff)
    bump = PLMap.make([(lo, lo), (mid_x, mid_y), (cutoff, cutoff)], 1, 1)
    return f * bump


def oracle_pl_fixing(gen, fixed, left, right):
    """``CaseGen._pl_fixing`` as it was before it drew integer pairs, through
    :func:`oracle_fraction_between`."""
    pts = []
    fixed = sorted(set(fixed))
    for a, b in zip(fixed, fixed[1:]):
        pts.append((a, a))
        if gen.rng.random() < 0.7:
            x = oracle_fraction_between(gen, a, b)
            y = oracle_fraction_between(gen, a, b)
            pts.append((x, y))
    pts.append((fixed[-1], fixed[-1]))
    return PLMap.make(pts, left, right)


def oracle_homeo(gen, space):
    """``CaseGen.homeo`` as it was before it drew integer pairs, through
    :func:`oracle_pl_fixing`, with the departures read off public data."""
    departures = sorted({space.departure(b) for b in space.branches} - {None}) or [F(0)]
    order = sorted(space.branches, key=lambda b: len(space.chain_to_root(b)))
    branch_pl = {}
    for name in order:
        parent = space.parent(name)
        if parent is None:
            branch_pl[name] = oracle_pl_fixing(
                gen, departures, gen.positive_slope(), gen.positive_slope()
            )
        else:
            dep = space.departure(name)
            anchors = sorted({dep, *(d for d in departures if d < dep)})
            lower = oracle_pl_fixing(gen, anchors, gen.positive_slope(), F(1))
            branch_pl[name] = _splice(lower, branch_pl[parent], dep)
    return Homeo({b: b for b in space.branches}, branch_pl)


# -- points ----------------------------------------------------------------
@dataclass(frozen=True)
class OraclePoint:
    """``Point`` as it was before it stored ints: a frozen dataclass whose
    hash reads the coordinate's numerator and denominator."""

    branch: str
    coord: F

    def __hash__(self):
        coord = self.coord
        return hash((self.branch, coord.numerator, coord.denominator))

    def __repr__(self):
        return f"Point({self.branch!r}, {format_rational(self.coord)})"


@dataclass(frozen=True)
class OracleBlownPoint:
    """``BlownPoint`` as it was before it stored ints."""

    point: OraclePoint
    height: F | None = None


def as_oracle(p):
    return OraclePoint(p.branch, p.coord)


def as_oracle_blown(q):
    return OracleBlownPoint(as_oracle(q.point), q.height)


def key_of_oracle(q):
    """The ``(branch, n, d)`` or ``(branch, n, d, hn, hd)`` key of an oracle
    blown point."""
    key = (q.point.branch, q.point.coord.numerator, q.point.coord.denominator)
    return key if q.height is None else key + (q.height.numerator, q.height.denominator)


def oracle_canonical(space, p):
    """``LeafSpace.canonical`` as it compared ``Fraction``s before it
    cross-multiplied ints: climb while the coordinate lies strictly above
    the branch's departure."""
    if p.branch not in space.branches:
        raise LeafSpaceError(f"unknown branch {p.branch!r}")
    branch, coord = p.branch, _frac(p.coord)
    while True:
        br = space.branches[branch]
        if br.parent is None or coord <= br.departure:
            return OraclePoint(branch, coord)
        branch = br.parent


def oracle_apply_homeo(space, h, p):
    """``apply_homeo`` as it evaluated the chart map to a ``Fraction`` and
    canonicalized the image point."""
    if p.branch not in h.branch_map or p.branch not in h.branch_pl:
        raise ActionError(f"homeomorphism undefined on branch {p.branch!r}")
    image = OraclePoint(h.branch_map[p.branch], h.branch_pl[p.branch](p.coord))
    return oracle_canonical(space, image)


def oracle_contains(space, line, p):
    """``Embedding(line).contains`` as it rebuilt the line's point at
    ``p.coord`` and compared."""
    if p.branch not in space.chain_to_root(line):
        return False
    return oracle_canonical(space, OraclePoint(line, _frac(p.coord))) == p


# -- homeos, induced germs and words ---------------------------------------
def oracle_share_threshold(space, first, second):
    """The largest departure on either chain below the branches' first
    common one, read from ``chain_to_root`` with nothing kept; ``None`` for
    one branch."""
    chain_a, chain_b = space.chain_to_root(first), space.chain_to_root(second)
    common = set(chain_a) & set(chain_b)
    return max(
        (space.departure(name) for chain in (chain_a, chain_b) for name in chain if name not in common),
        default=None,
    )


def oracle_validate_homeo(space, h):
    """``validate_homeo`` as it was before it ran on ints: ``check`` and
    ``agree_on_ray`` are the ``Fraction``-era oracles, and the departure
    image is a ``Fraction``."""
    names = set(space.branches)
    undeclared = (h.branch_map.keys() | h.branch_pl.keys()) - names
    if undeclared:
        return f"branch {sorted(undeclared)[0]!r} is not declared in the space"
    missing = names - set(h.branch_map)
    if missing:
        return f"branch_map does not cover branch {sorted(missing)[0]!r}"
    missing = names - set(h.branch_pl)
    if missing:
        return f"branch_pl does not cover branch {sorted(missing)[0]!r}"
    targets = [h.branch_map[b] for b in sorted(names)]
    if set(targets) != names or len(set(targets)) != len(targets):
        return "branch_map is not a bijection of the branches"
    for b in sorted(names):
        problem = oracle_check(**field_dict(h.branch_pl[b]))
        if problem is not None:
            return f"orientation: branch {b!r} chart map invalid ({problem})"
    sign, shared = (-1, "below") if space.side is Side.POSITIVE else (1, "above")
    for child in sorted(names):
        par = space.parent(child)
        if par is None:
            continue
        dep = space.departure(child)
        if not oracle_agree_on_ray(h.branch_pl[child], h.branch_pl[par], dep):
            return (
                f"compatibility: chart maps of {child!r} and parent {par!r} "
                f"disagree {shared} the departure"
            )
        image_dep = h.branch_pl[par](dep)
        threshold = oracle_share_threshold(space, h.branch_map[child], h.branch_map[par])
        if threshold != image_dep:
            return (
                f"departure: image branches {h.branch_map[child]!r}, "
                f"{h.branch_map[par]!r} share from {sign * threshold}, "
                f"expected {sign * image_dep}"
            )
    return None


def oracle_line_image(space, h, e, x):
    """``line_image`` the way every probe used to run: canonicalize the line
    point, apply ``h``, test membership and read ``.coord`` back."""
    image = apply_homeo(space, h, e.point_at(space, x))
    if not e.contains(space, image):
        return None
    return image.coord.numerator, image.coord.denominator


def oracle_ray_events(space, h, e):
    """The ray events as a sorted list of ``Fraction``s, read off public
    data: every departure of the space, and each chart breakpoint and
    preimage of a departure along ``e``'s chain to the root."""
    departures = {space.departure(b) for b in space.branches} - {None}
    events = set(departures)
    for branch in space.chain_to_root(e.branch):
        if branch not in h.branch_pl:
            raise ActionError(f"homeomorphism undefined on branch {branch!r}")
        pl = h.branch_pl[branch]
        events.update(pl.breakpoints)
        events.update(pl.preimage(dep) for dep in departures)
    return sorted(events)


def oracle_overlap_ray(space, h, e):
    """``overlap_ray`` scanned afresh on ``Fraction``s: the last event, or
    the event above the last midpoint, whose image leaves the line."""

    def on_line(x):
        return oracle_line_image(space, h, e, x) is not None

    events = oracle_ray_events(space, h, e)
    if not on_line(events[-1] + 1 if events else F(0)):
        raise ActionError("image ray never returns to the embedded line")
    t0 = FULL_LINE
    if events and not on_line(events[0] - 1):
        t0 = events[0]
    for i, ev in enumerate(events):
        if not on_line(ev):
            t0 = ev
        if i + 1 < len(events) and not on_line((ev + events[i + 1]) / 2):
            t0 = events[i + 1]
    return t0


def oracle_moved_point_witness(space, h, e, n):
    """``moved_point_witness`` on ``Fraction``s: the events above ``n``, two
    points inside each gap below them, then two points above the last."""
    candidates, low = [], F(n)
    for ev in oracle_ray_events(space, h, e):
        if ev > low:
            candidates += [low + (ev - low) / 3, low + 2 * (ev - low) / 3, ev]
            low = ev
    for x in candidates + [low + 1, low + 2]:
        if oracle_line_image(space, h, e, x) != (x.numerator, x.denominator):
            return x
    return None


def oracle_induced_germ(space, h, e, threshold=None):
    """The induced germ computed the long way, with the overlap scan always
    run: samples above the larger of the scanned (or given) threshold and
    every ray event."""
    events = oracle_ray_events(space, h, e)
    t0 = oracle_overlap_ray(space, h, e)
    if threshold is None:
        base = t0 if t0 is not None else F(0)
    else:
        base = F(threshold)
        if t0 is not None and base < t0:
            raise ActionError(f"threshold {base} lies below the overlap ray {t0}")
    start = max([base, *events]) if events else base
    samples = []
    for x in (start + 1, start + 2):
        y = oracle_line_image(space, h, e, x)
        if y is None:
            raise ActionError("sample point above the overlap ray left the line")
        samples.append((x, F(*y)))
    (x1, y1), (x2, y2) = samples
    slope = (y2 - y1) / (x2 - x1)
    return Germ(slope, y1 - slope * x1)


def oracle_word_homeo(space, generators, word):
    """``word_homeo`` composed from the identity, one letter at a time."""
    result = identity_homeo(space)
    for name, exp in word.letters:
        result = compose_homeo(result, letter_homeo(generators, name, exp))
    problem = validate_homeo(space, result)
    if problem is not None:
        raise ActionError(f"invalid homeomorphism {word}: {problem}")
    return result


def oracle_word_germ(space, generators, word, e):
    """``word_germ`` with every letter's germ computed afresh, on a new
    homeo that keeps nothing.  It reads ``action.induced_germ`` at each
    call, so a fault patched into it reaches both routes."""
    direct = action.induced_germ(space, oracle_word_homeo(space, generators, word), e)
    product = Germ.identity()
    for name, exp in word.letters:
        letter = letter_homeo(generators, name, exp)
        fresh = Homeo(letter.branch_map, letter.branch_pl)
        product = product * action.induced_germ(space, fresh, e)
    if product != direct:
        raise GermMismatchError(
            f"germ of composition {direct!r} disagrees with letter product {product!r}"
        )
    return direct


def oracle_words(b):
    """Every reduced word of length at most 4, then 200 random ones."""
    names, gen = sorted(b.generators), CaseGen(11)
    return reduced_words(names, 4) + [gen.word(names, 8) for _ in range(200)]


# -- the blown-up, twisted action ------------------------------------------
def oracle_plain_samples(space, ball, want):
    """``suites._plain_samples`` as it selected before it moved candidates in
    chunks: one candidate at a time, through every ball homeo by
    ``apply_homeo`` until one lands on the orbit.  Returns the samples and
    the ``(homeo index, point)`` of every move made."""
    base = space.base
    homeos = [space.word_homeo(w) for w in reduced_words(sorted(space.generators), ball)]
    top = max((dep for b in base.branches if (dep := base.departure(b)) is not None), default=F(0))
    candidates = []
    for off in (F(n, 7) for n in range(1, 4 * want, 2)):
        candidates.append(Point(base.root, top + off))
        for name in sorted(base.branches):
            dep = base.departure(name)
            candidates.append(Point(name, (dep if dep is not None else F(0)) - off))
    out, seen, moves = [], set(), []
    for cand in candidates:
        point = base.canonical(cand)
        if point in seen or point in space.orbit:
            continue
        seen.add(point)
        hit = False
        for i, h in enumerate(homeos):
            moves.append((i, point))
            if apply_homeo(base, h, point) in space.orbit:
                hit = True
                break
        if hit:
            continue
        out.append(BlownPoint(point))
        if len(out) >= want:
            break
    return out, moves


def oracle_alpha_apply(space, h, q):
    """One image of the twisted action with ``Fraction`` heights, as
    ``alpha_apply`` computed it before heights were ints."""
    image = oracle_apply_homeo(space.base, space.word_homeo(h), q.point)
    orbit = {as_oracle(p): w for p, w in space.orbit.items()}
    if q.height is None:
        if image in orbit:
            raise OrbitEscapeError(
                f"plain point {q.point!r} maps into a blown interval; expand the orbit depth"
            )
        return OracleBlownPoint(image)
    if q.point not in orbit:
        raise BlowupError(f"{q.point!r} is not a blown orbit point")
    if image not in orbit:
        raise OrbitEscapeError(
            f"image of orbit point {q.point!r} under {str(h)!r} needs depth beyond {space.depth}"
        )
    stab = space.stabilizer
    new_height = stab.phi_word(stab.twist(h, orbit[q.point]))(q.height)
    if not (0 <= new_height <= 1):
        raise BlowupError("twist map left the unit interval")
    return OracleBlownPoint(image, new_height)


def oracle_validate_alpha_action(space, samples, ball):
    """The action-law check as it ran before it applied each word to the
    whole sample list: one ``alpha_apply`` per point, stepwise then
    combined; the reference for the evaluation order."""
    words = reduced_words(sorted(space.generators), ball)
    empty = Word()
    for q in samples:
        image = alpha_apply(space, empty, q)
        if image != q:
            return ActionLawViolation(empty, empty, q, image, q)
    for inner in words:
        budget = ball - len(inner)
        if budget < 0:
            continue
        mids = [alpha_apply(space, inner, q) for q in samples]
        for outer in words:
            if len(outer) > budget:
                continue
            product = outer * inner
            for q, mid in zip(samples, mids):
                stepwise = alpha_apply(space, outer, mid)
                combined = alpha_apply(space, product, q)
                if combined != stepwise:
                    return ActionLawViolation(outer, inner, q, combined, stepwise)
    return None


def oracle_stabilizer_factorization(stab, word):
    """Greedy factorization, trying each generator as a prefix at each step:
    how ``StabilizerData`` factored words before it read them off its letter
    table."""
    factors = []
    remaining = tuple(word.letters)
    while remaining:
        for gen in stab.k_generators:
            glen = len(gen.letters)
            if remaining[:glen] == gen.letters:
                factors.append((str(gen), 1))
                remaining = remaining[glen:]
                break
            if remaining[:glen] == (~gen).letters:
                factors.append((str(gen), -1))
                remaining = remaining[glen:]
                break
        else:
            return None
    return tuple(factors)


def oracle_coset_rep(stab, word):
    """The table override, else generator tails stripped one at a time:
    the old ``coset_rep`` without its cache."""
    override = stab.coset_table.get(str(word))
    if override is not None:
        return override
    rep = word
    stripped = True
    while stripped and rep.letters:
        stripped = False
        for gen in stab.k_generators:
            glen = len(gen.letters)
            if glen == 0 or glen > len(rep.letters):
                continue
            tail = rep.letters[-glen:]
            if tail == gen.letters or tail == (~gen).letters:
                rep = Word(rep.letters[:-glen])
                stripped = True
                break
    return rep


def oracle_twist(stab, h, g):
    """``x_{hgK}^-1 h x_{gK}`` as one reduction of its concatenated letters,
    with no ``Word`` operator, as ``twist`` was built before words were
    reduced once."""
    rep = oracle_coset_rep(stab, Word(h.letters + g.letters))
    inverse = tuple((name, -exp) for name, exp in reversed(rep.letters))
    return Word(inverse + h.letters + oracle_coset_rep(stab, g).letters)
