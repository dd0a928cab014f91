"""Consistent approximations of Dempster-Shafer belief functions.

Represents mass assignments on finite frames and computes the consistent
belief function(s) closest to a given one under the L1, L2 and Linf norms,
together with an exact oracle that embeds them in mass or belief
coordinates and verifies every closed form.

``_HOMES`` names each public name's module, and ``__all__`` and ``dir()``
read it.  ``import csbf`` loads none of those modules, nor numpy: a name,
or a module the table names (``csbf.core``), loads its module on first
use, so that only ``csbf verify`` pays for :mod:`csbf.oracle`.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "ApproxBox": "consistent_mass",
    "EvidenceError": "core",
    "Frame": "core",
    "FrameTooLargeError": "oracle",
    "GammaBox": "consistent_belief",
    "GlobalResult": "consistent_mass",
    "MassFunction": "core",
    "OracleReport": "oracle",
    "PseudoMassFunction": "core",
    "Solution": "consistent_mass",
    "SpaceKind": "core",
    "belief_from_mass": "core",
    "brute_force_partial": "oracle",
    "contour": "core",
    "core_of": "core",
    "focused_transform": "consistent_belief",
    "gamma_to_mass": "consistent_belief",
    "global_l1_belief": "consistent_belief",
    "global_l1_mass": "consistent_mass",
    "global_l2_belief": "consistent_belief",
    "global_l2_mass": "consistent_mass",
    "global_linf_belief": "consistent_belief",
    "global_linf_mass": "consistent_mass",
    "library_global": "oracle",
    "partial_l1_mass": "consistent_mass",
    "partial_l2_mass": "consistent_mass",
    "partial_linf_belief": "consistent_belief",
    "partial_linf_mass": "consistent_mass",
    "ultrafilter": "core",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    if name in _HOMES.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES.values()})
