"""Bundled example actions.

Three small actions exercise every branch of the machinery:

``e1``
    The integers translating a single line.  Trivial stabilizer, orbit
    meets every upper ray, germs are the translations.

``e2``
    A two-branch space whose generator swaps the root line with the branch
    line, fixing their shared upper ray.  Every point above the departure is
    fixed, so the induced germ is trivial even though the action is not:
    the witness search fails on every upper ray.  This is the failure mode
    the blow-up construction exists to repair.

``e3``
    A free pair acting on a three-branch space.  ``k`` fixes the marked
    point ``(b1, -1)`` and realizes the stabilizer; ``f`` contracts the
    branch ray toward the branch point.  The slopes are chosen so that no
    word of length at most five fixes the marked point except powers of
    ``k``, and the germ images (slope 2 resp. slope 3 with offset 1)
    satisfy no relation of length at most five either.

``e3-phi-fault`` and ``e3-coset-fault`` are deliberately broken copies of
``e3`` that differ from it only in their name and stabilizer data: the
first realizes the stabilizer with a map fixing height 1/2, the second
overrides one coset representative inconsistently.  Both exist so the
checkers have something to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .action import Homeo, Word
from .blowup import StabilizerData
from .leafspace import LeafSpace, Point, Side
from .plmap import PLMap


@dataclass(frozen=True)
class Bundle:
    """An action to run suites against, optionally with blow-up data: a
    bundled example, or user files under the name ``"file"``."""

    name: str
    space: LeafSpace
    generators: dict[str, Homeo]
    marked: Point | None = None
    stabilizer: StabilizerData | None = None
    depth: int = 0
    ball: int = 0
    noncanonical: tuple[str, ...] = ()

    @property
    def has_blowup(self) -> bool:
        return self.marked is not None and self.stabilizer is not None


def _e1() -> Bundle:
    space = LeafSpace.build(Side.NEGATIVE, {"r": (None, None)})
    shift = Homeo({"r": "r"}, {"r": PLMap.affine(1, 1)})
    stab = StabilizerData((), {})
    return Bundle(
        "e1",
        space,
        {"u": shift},
        marked=Point("r", Fraction(0)),
        stabilizer=stab,
        depth=8,
        ball=4,
    )


def _e2() -> Bundle:
    space = LeafSpace.build(
        Side.NEGATIVE, {"r": (None, None), "b": ("r", Fraction(0))}
    )
    ident = PLMap.identity()
    swap = Homeo({"r": "b", "b": "r"}, {"r": ident, "b": ident})
    return Bundle("e2", space, {"s": swap})


def _phi_standard() -> PLMap:
    # Fixes 0 and 1, pushes everything in between up: 1/2 goes to 3/4.
    return PLMap.make([(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)], 1, 1)


def _e3() -> Bundle:
    space = LeafSpace.build(
        Side.NEGATIVE,
        {"r": (None, None), "b1": ("r", Fraction(0)), "b2": ("r", Fraction(0))},
    )
    # f: doubling above the branch point, halving on the branch rays.
    f_branch = PLMap.make([(0, 0)], Fraction(1, 2), 2)
    f = Homeo(
        {"r": "r", "b1": "b1", "b2": "b2"},
        {"r": PLMap.affine(2, 0), "b1": f_branch, "b2": f_branch},
    )
    # k: germ (3, 1) upstairs; on b1 it fixes -1 and nothing else below 0.
    k_root = PLMap.make([(0, 0), (1, 4)], 3, 3)
    k_b1 = PLMap.make(
        [(-1, -1), (Fraction(-1, 2), Fraction(-2, 5)), (0, 0), (1, 4)], 4, 3
    )
    k_b2 = PLMap.make([(0, 0), (1, 4)], 1, 3)
    k = Homeo(
        {"r": "r", "b1": "b1", "b2": "b2"},
        {"r": k_root, "b1": k_b1, "b2": k_b2},
    )
    stab = StabilizerData((Word.parse("k"),), {"k": _phi_standard()})
    return Bundle(
        "e3",
        space,
        {"f": f, "k": k},
        marked=Point("b1", Fraction(-1)),
        stabilizer=stab,
        depth=6,
        ball=5,
    )


def _e3_phi_fault() -> Bundle:
    stab = StabilizerData((Word.parse("k"),), {"k": PLMap.identity()})
    return replace(_e3(), name="e3-phi-fault", stabilizer=stab)


def _e3_coset_fault() -> Bundle:
    # "f k" lies in the coset of "f", so this representative is legal but
    # disagrees with the default choice for every other word of the coset.
    stab = StabilizerData(
        (Word.parse("k"),),
        {"k": _phi_standard()},
        coset_table={"f": Word.parse("f k")},
    )
    return replace(_e3(), name="e3-coset-fault", stabilizer=stab)


_BUILDERS = {
    "e1": _e1,
    "e2": _e2,
    "e3": _e3,
    "e3-phi-fault": _e3_phi_fault,
    "e3-coset-fault": _e3_coset_fault,
}

BUNDLED = tuple(sorted(_BUILDERS))
STANDARD = ("e1", "e2", "e3")


def bundle(name: str) -> Bundle:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown bundled example {name!r}") from None
    return builder()
