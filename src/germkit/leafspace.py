"""Branch-tree model of a simply connected 1-manifold branching on one side.

The space is a finite tree of branches.  Every branch carries a copy of the
rational line as its chart; a non-root branch ``b`` departs its parent at a
coordinate ``t_b`` and is glued to it by the identity on the open ray
``(t_b, +oo)``.  Coordinates are therefore globally comparable, all lines
merge going up, and the space has one upper end and one lower end per branch.
The pair ``(b, t_b)`` / ``(parent, t_b)`` is the classic non-separated pair
at each departure.

Spaces declared as branching upward are stored reflected (departures
negated) so that the rest of the package can always assume branching is
below; the serializer restores file coordinates on output.

A :class:`Point` holds its coordinate as a reduced numerator and
denominator, and builds the ``Fraction`` only when ``.coord`` is read.
Canonicalization, membership of an embedded line and the action's
:func:`~germkit.action.apply_homeo` all run on those ints, through one
routine that ascends past departures by integer cross-multiplication
(:meth:`LeafSpace._ascend`).

A :class:`LeafSpace` is frozen after :meth:`LeafSpace.build`; all queries are
pure, so concurrent use is safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .plmap import RationalLike, _frac
from .rationals import format_rational


class LeafSpaceError(ValueError):
    """Structurally invalid branch data."""


class Side(enum.Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"


@dataclass(frozen=True)
class Branch:
    parent: str | None
    departure: Fraction | None


class Point:
    """A chart point ``(branch, coordinate)``.

    Distinct chart points may denote the same point of the space; use
    :meth:`LeafSpace.canonical` for the unique root-most representative.

    ``Point(branch, coord)`` takes a ``Fraction`` or an ``int`` (or a
    ``"p/q"`` string) and stores the coordinate as its reduced numerator
    and denominator.  ``.coord`` is always a ``Fraction``: the one given,
    or one built on the first read and kept.  ``==`` and ``hash`` read the
    ints, and the hash is that of ``(branch, numerator, denominator)``, so
    ``Point(b, 1) == Point(b, Fraction(2, 2))`` with equal hashes.  The
    action layer builds points straight from integer pairs through
    :meth:`_of`, so a point it computes holds no ``Fraction`` until one is
    read.  ``branch`` and ``coord`` are read-only.
    """

    __slots__ = ("_branch", "_n", "_d", "_coord")

    def __init__(self, branch: str, coord: RationalLike):
        if type(coord) is int:
            self._n, self._d, self._coord = coord, 1, None
        else:
            coord = _frac(coord)
            self._n, self._d, self._coord = coord.numerator, coord.denominator, coord
        self._branch = branch

    @classmethod
    def _of(cls, branch: str, n: int, d: int) -> "Point":
        """The point ``(branch, n/d)`` for any pair with ``d > 0``, reduced
        by one ``gcd``; no ``Fraction`` is built."""
        g = gcd(n, d)
        p = object.__new__(cls)
        p._branch, p._n, p._d, p._coord = branch, n // g, d // g, None
        return p

    @property
    def branch(self) -> str:
        return self._branch

    @property
    def coord(self) -> Fraction:
        coord = self._coord
        if coord is None:
            coord = self._coord = Fraction(self._n, self._d)
        return coord

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._n == other._n and self._d == other._d and self._branch == other._branch

    def __hash__(self) -> int:
        return hash((self._branch, self._n, self._d))

    def __repr__(self) -> str:
        return f"Point({self._branch!r}, {format_rational(self.coord)})"


class LeafSpace:
    """Finite branch tree with identity gluings above each departure."""

    def __init__(self, side: Side, branches: Mapping[str, Branch], root: str):
        self.side = side
        self.branches: dict[str, Branch] = dict(branches)
        self.root = root
        self._children: dict[str, tuple[str, ...]] = {b: () for b in self.branches}
        kids: dict[str, list[str]] = {b: [] for b in self.branches}
        for name, br in self.branches.items():
            if br.parent is not None:
                kids[br.parent].append(name)
        for name, lst in kids.items():
            self._children[name] = tuple(sorted(lst))
        self._chains: dict[str, tuple[str, ...]] = {}
        self._shares: dict[tuple[str, str], Fraction] = {}
        # the tables validate_homeo reads: the names as a set and sorted, and
        # each non-root branch with its parent and departure, in name order;
        # beside them the distinct departures, sorted
        self._names = frozenset(self.branches)
        self._sorted_names = tuple(sorted(self.branches))
        self._edges: tuple[tuple[str, str, Fraction], ...] = tuple(
            (name, self.branches[name].parent, self.branches[name].departure)
            for name in self._sorted_names
            if self.branches[name].parent is not None
        )
        self._departures: tuple[Fraction, ...] = tuple(sorted({dep for _, _, dep in self._edges}))
        # each branch -> (parent, departure numerator, denominator), or None at the root
        self._up: dict[str, tuple[str, int, int] | None] = {
            name: None
            if br.parent is None
            else (br.parent, br.departure.numerator, br.departure.denominator)
            for name, br in self.branches.items()
        }

    @classmethod
    def build(
        cls,
        side: Side | str,
        branches: Mapping[str, tuple[str | None, RationalLike | None]],
    ) -> "LeafSpace":
        """Validate branch data and freeze the space.

        ``branches`` maps each branch id to ``(parent, departure)``; exactly
        one branch (the root) has no parent and no departure, every other
        branch needs both, parents must exist, and the parent relation must
        be acyclic.
        """
        if isinstance(side, str):
            try:
                side = Side(side)
            except ValueError:
                raise LeafSpaceError(f"unknown side {side!r}") from None
        if not branches:
            raise LeafSpaceError("a leaf space needs at least one branch")
        data: dict[str, Branch] = {}
        roots = []
        for name, (parent, departure) in branches.items():
            if not isinstance(name, str) or not name:
                raise LeafSpaceError(f"branch id must be a nonempty string, got {name!r}")
            if parent is None:
                if departure is not None:
                    raise LeafSpaceError(f"branch {name!r}: root cannot have a departure")
                roots.append(name)
                data[name] = Branch(None, None)
            else:
                if departure is None:
                    raise LeafSpaceError(f"branch {name!r}: departure is missing")
                data[name] = Branch(parent, _frac(departure))
        if len(roots) != 1:
            raise LeafSpaceError(f"expected exactly one root branch, found {len(roots)}")
        root = roots[0]
        for name, br in data.items():
            if br.parent is not None and br.parent not in data:
                raise LeafSpaceError(f"branch {name!r}: departs from undefined branch {br.parent!r}")
        for name in data:
            seen = {name}
            cur = data[name].parent
            while cur is not None:
                if cur in seen:
                    raise LeafSpaceError(f"branch {name!r}: parent chain contains a cycle")
                seen.add(cur)
                cur = data[cur].parent
        return cls(side, data, root)

    # -- structure ---------------------------------------------------------

    def parent(self, branch: str) -> str | None:
        return self.branches[branch].parent

    def departure(self, branch: str) -> Fraction | None:
        return self.branches[branch].departure

    def chain_to_root(self, branch: str) -> tuple[str, ...]:
        """Branches from ``branch`` up to and including the root."""
        cached = self._chains.get(branch)
        if cached is not None:
            return cached
        if branch not in self.branches:
            raise LeafSpaceError(f"unknown branch {branch!r}")
        chain = [branch]
        cur = self.branches[branch].parent
        while cur is not None:
            chain.append(cur)
            cur = self.branches[cur].parent
        self._chains[branch] = tuple(chain)
        return self._chains[branch]

    def share_threshold(self, first: str, second: str) -> Fraction | None:
        """Least ``T`` with ``(first, s) == (second, s)`` for all ``s > T``.

        ``None`` means the branches share every coordinate (i.e. they are the
        same branch).  In a tree all charts merge going up, so this is the
        maximum departure along the two chains below their first common
        branch.  Computed once per ordered pair and kept.
        """
        if first == second:
            return None
        cached = self._shares.get((first, second))
        if cached is not None:
            return cached
        chain_a = self.chain_to_root(first)
        chain_b = self.chain_to_root(second)
        common = set(chain_a) & set(chain_b)
        best: Fraction | None = None
        for chain in (chain_a, chain_b):
            for name in chain:
                if name in common:
                    break
                dep = self.branches[name].departure
                assert dep is not None
                best = dep if best is None else max(best, dep)
        assert best is not None
        self._shares[first, second] = best
        return best

    # -- points ------------------------------------------------------------

    def _ascend(self, branch: str, n: int, d: int) -> str:
        """The branch of the root-most representative of ``(branch, n/d)``.

        Climbs while ``n/d``, with ``d > 0`` and not necessarily reduced,
        lies strictly above the branch's departure, comparing by integer
        cross-multiplication.  An undeclared branch raises
        :class:`LeafSpaceError`.
        """
        try:
            up = self._up[branch]
        except KeyError:
            raise LeafSpaceError(f"unknown branch {branch!r}") from None
        while up is not None and n * up[2] > up[1] * d:
            branch = up[0]
            up = self._up[branch]
        return branch

    def canonical(self, p: Point) -> Point:
        """Root-most representative: ascend while strictly above departures.

        Runs on the point's integer coordinate (see :meth:`_ascend`) and
        builds no ``Fraction``.  A point that is already canonical is
        returned as it is.
        """
        branch = self._ascend(p.branch, p._n, p._d)
        if branch == p.branch:
            return p
        return Point._of(branch, p._n, p._d)

    def non_separated(self, p: Point) -> frozenset[Point]:
        """All points sharing every neighbourhood with canonical ``p``.

        Two chart lines agree just above coordinate ``t`` exactly when they
        are joined by gluing edges with departure ``<= t``; the partners of
        ``p`` are the other canonical points at the same coordinate in that
        component.
        """
        p = self.canonical(p)
        t = p.coord
        component = {p.branch}
        queue = [p.branch]
        while queue:
            cur = queue.pop()
            br = self.branches[cur]
            if br.parent is not None and br.departure <= t and br.parent not in component:
                component.add(br.parent)
                queue.append(br.parent)
            for child in self._children[cur]:
                dep = self.branches[child].departure
                if dep <= t and child not in component:
                    component.add(child)
                    queue.append(child)
        partners = set()
        for name in component:
            if name == p.branch:
                continue
            br = self.branches[name]
            if br.parent is None or t <= br.departure:
                partners.add(Point(name, t))
        return frozenset(partners)


@dataclass(frozen=True)
class Embedding:
    """A line in the space: the chart chain through one branch.

    ``point_at(x)`` is the canonical point of ``(branch, x)``; going up the
    chain the embedded line reaches the unique upper end, going down it ends
    in the chosen branch's lower end.  Gluings are identity in coordinates,
    so the embedding parameter of a point on the line is its coordinate.
    """

    branch: str

    def point_at(self, space: LeafSpace, x: RationalLike) -> Point:
        return space.canonical(Point(self.branch, x))

    def contains(self, space: LeafSpace, p: Point) -> bool:
        """Whether canonical ``p`` lies on the embedded line.

        It does when the line's point at ``p``'s coordinate is ``p``: when
        ascending from this branch at that coordinate stops on ``p``'s
        branch.  Decided on ``p``'s integer coordinate; no point and no
        ``Fraction`` is built.
        """
        return space._ascend(self.branch, p._n, p._d) == p.branch


def root_embedding(space: LeafSpace) -> Embedding:
    """The distinguished chart: the root branch's line."""
    return Embedding(space.root)
