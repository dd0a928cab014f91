"""Consistent approximations of Dempster-Shafer belief functions.

Represents mass assignments on finite frames, embeds them in mass or belief
coordinates, and computes the consistent belief function(s) closest to a
given one under the L1, L2 and Linf norms, together with an exact
oracle that verifies every closed form.
"""

from .core import (
    BeliefView,
    EvidenceError,
    Frame,
    MassFunction,
    PseudoMassFunction,
    belief_from_mass,
    contour,
    core_of,
    is_consistent,
    mass_from_belief,
    ultrafilter,
)
from .geometry import (
    EmbeddingSpace,
    PointVector,
    SpaceKind,
    categorical_inner_product,
    embed,
    lemma_alternating_sum,
    lp_distance,
)
from .consistent_mass import (
    ApproxBox,
    GlobalResult,
    PartialApprox,
    global_l1_mass,
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
)
from .consistent_belief import (
    FocusedTransform,
    GammaBox,
    find_global_l1_counterexample,
    focused_transform,
    gamma_to_mass,
    global_l1_belief,
    global_l2_belief,
    global_linf_belief,
    partial_linf_belief,
    verify_orthogonality,
)
from .oracle import (
    FrameTooLargeError,
    OracleReport,
    brute_force_partial,
    closed_form_partial,
    library_global,
)
from .sampling import random_mass_function

__version__ = "0.1.0"

__all__ = [
    "ApproxBox",
    "BeliefView",
    "EmbeddingSpace",
    "EvidenceError",
    "FocusedTransform",
    "Frame",
    "FrameTooLargeError",
    "GammaBox",
    "GlobalResult",
    "MassFunction",
    "OracleReport",
    "PartialApprox",
    "PointVector",
    "PseudoMassFunction",
    "SpaceKind",
    "belief_from_mass",
    "brute_force_partial",
    "categorical_inner_product",
    "closed_form_partial",
    "contour",
    "core_of",
    "embed",
    "find_global_l1_counterexample",
    "focused_transform",
    "gamma_to_mass",
    "global_l1_belief",
    "global_l1_mass",
    "global_l2_belief",
    "global_l2_mass",
    "global_linf_belief",
    "global_linf_mass",
    "is_consistent",
    "lemma_alternating_sum",
    "library_global",
    "lp_distance",
    "mass_from_belief",
    "partial_l1_mass",
    "partial_l2_mass",
    "partial_linf_belief",
    "partial_linf_mass",
    "random_mass_function",
    "ultrafilter",
    "verify_orthogonality",
    "__version__",
]
