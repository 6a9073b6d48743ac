"""germkit: exact verification of germ-at-infinity machinery.

The package builds, in exact rational arithmetic, the objects needed to
study orientation-preserving group actions on simply connected 1-manifolds
that branch on one side: piecewise-linear line homeomorphisms and their
germs at +infinity, branch-tree leaf spaces, the germ homomorphism induced
by an embedded line, and the coset-twisted action on a blown-up orbit.
Every statement the package cares about ships as a property suite runnable
from the ``germkit`` command line.
"""

from .action import (
    Homeo,
    Word,
    apply_homeo,
    compose_homeo,
    extend_space_for_action,
    identity_homeo,
    induced_germ,
    invert_homeo,
    moved_point_witness,
    overlap_ray,
    reduced_words,
    validate_homeo,
    word_germ,
    word_homeo,
)
from .blowup import (
    BlownPoint,
    BlowupSpace,
    StabilizerData,
    alpha_apply,
    blown_induced_germ,
    injectivity_certificate,
    law_violation,
    positive_ray_orbit_search,
    stabilizer_check,
    validate_alpha_action,
)
from .germ import Germ, OrderSign, compare
from .leafspace import (
    Embedding,
    LeafSpace,
    Point,
    Side,
    root_embedding,
)
from .plmap import InvalidMapError, PLMap, agree_on_ray

__all__ = [
    "BlownPoint",
    "BlowupSpace",
    "Embedding",
    "Germ",
    "Homeo",
    "InvalidMapError",
    "LeafSpace",
    "OrderSign",
    "PLMap",
    "Point",
    "Side",
    "StabilizerData",
    "Word",
    "agree_on_ray",
    "alpha_apply",
    "apply_homeo",
    "blown_induced_germ",
    "compare",
    "compose_homeo",
    "extend_space_for_action",
    "identity_homeo",
    "induced_germ",
    "injectivity_certificate",
    "invert_homeo",
    "law_violation",
    "moved_point_witness",
    "overlap_ray",
    "positive_ray_orbit_search",
    "reduced_words",
    "root_embedding",
    "stabilizer_check",
    "validate_alpha_action",
    "validate_homeo",
    "word_germ",
    "word_homeo",
]
