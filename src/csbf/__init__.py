"""Consistent approximations of Dempster-Shafer belief functions.

Represents mass assignments on finite frames and computes the consistent
belief function(s) closest to a given one under the L1, L2 and Linf norms,
together with an exact oracle that embeds them in mass or belief
coordinates and verifies every closed form.

The oracle's names load with :mod:`csbf.oracle` on first use, so that only
``csbf verify`` pays for that module.
"""

from .core import (
    EvidenceError,
    Frame,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    belief_from_mass,
    contour,
    core_of,
    ultrafilter,
)
from .consistent_mass import (
    ApproxBox,
    GlobalResult,
    Solution,
    global_l1_mass,
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
)
from .consistent_belief import (
    GammaBox,
    focused_transform,
    gamma_to_mass,
    global_l1_belief,
    global_l2_belief,
    global_linf_belief,
    partial_linf_belief,
)

_ORACLE_NAMES = ("FrameTooLargeError", "OracleReport", "brute_force_partial", "library_global")

__version__ = "0.1.0"

__all__ = [
    "ApproxBox",
    "EvidenceError",
    "Frame",
    "FrameTooLargeError",
    "GammaBox",
    "GlobalResult",
    "MassFunction",
    "OracleReport",
    "PseudoMassFunction",
    "Solution",
    "SpaceKind",
    "belief_from_mass",
    "brute_force_partial",
    "contour",
    "core_of",
    "focused_transform",
    "gamma_to_mass",
    "global_l1_belief",
    "global_l1_mass",
    "global_l2_belief",
    "global_l2_mass",
    "global_linf_belief",
    "global_linf_mass",
    "library_global",
    "partial_l1_mass",
    "partial_l2_mass",
    "partial_linf_belief",
    "partial_linf_mass",
    "ultrafilter",
    "__version__",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
