"""Consistent approximation in belief coordinates.

Unlike the mass-coordinate projections, belief-space projection tells the
ultrafilter members apart by their set relations with the outside focal
elements.  The L1 and L2 projections onto one ultrafilter coincide and equal
the *focused transform*: every focal element B is mapped to ``B union {x}``,
so the new mass of A is ``m(A) + m(A minus x)``.

The Linf solution set is again a box, but an axis-aligned one only in the
triangular "gamma" coordinates, where ``gamma(A)`` accumulates the mass
shifts of the ultrafilter members inside A.  The box is centred on the
focused transform, and a point's offset from the centre maps to mass shifts
through Moebius inversion on the sublattice of sets containing x.

:func:`gamma_to_mass` is one O((n-1) 2^(n-1)) Moebius transform.  No command
calls it (box corners come from ``LinfBox.corners``); it stays only for
perfbench's hook and its self-test, until that hook moves to ``--vertices``.

Each criterion is a sum over the subsets of ``x^c`` of m, of ``b = zeta(m)`` or
of b**2, which :func:`core.outside_sums` folds for every element at once.  A
selector takes the whole vector; a partial builds b once and takes its
focus's entry:

    L1            sum of b over the subsets of x^c
    L2            sum of b**2 over the subsets of x^c    (squared)
    Linf          b(x^c), the sum of m over the same subsets (L1 mass's)

``CELLS``, the package's one list of (norm, space) cells, lives here, the
lowest module that sees both closed-form families: each row holds the
global selector and the partial solver, whose
:class:`~csbf.consistent_mass.Solution` carries the closed form's point
and distance.  The CLI's ``approximate`` and the oracle read it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import consistent_mass
from .core import (
    TOL,
    FrozenRecord,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    belief_from_mass,
    mobius_transform,
    outside_sums,
    ultrafilter,
    zeta_transform,
)
from .consistent_mass import GlobalResult, LinfBox, Solution, select_optima
# Linf belief's criterion b(x^c) is L1 mass's: one selector, bound under
# this name too, so each cell calls it through its own module attribute.
from .consistent_mass import global_l1_mass as global_linf_belief


def _focused_masses(m: MassFunction, x: str) -> MassFunction:
    """The focused transform's masses: ``m(A) + m(A minus x)`` on every A containing x."""
    by_x = m.as_array().reshape(-1, 2, m.frame.singleton(x))  # [:, 1, :] holds x, [:, 0, :] not
    moved = np.zeros_like(by_x)
    moved[:, 1, :] = by_x[:, 1, :] + by_x[:, 0, :]
    return MassFunction(m.frame, moved.ravel())


def focused_transform(m: MassFunction, x: str) -> Solution:
    """Partial L1/L2 belief-space projection onto the ultrafilter of x.

    The focused transform is both the L1 and the L2 solution, so
    ``distances`` holds both attained distances, ``{1: d1, 2: d2}``.
    """
    belief, i = belief_from_mass(m), m.frame.index_of(x)
    total = outside_sums(belief)[i]
    squares = outside_sums(np.square(belief, out=belief))[i]  # b is fresh: square it in place
    del belief  # freed before the point's vectors are built
    return Solution(x, _focused_masses(m, x), {1: float(total), 2: math.sqrt(squares)})


def global_l1_belief(m: MassFunction) -> GlobalResult:
    """Global L1 pick in belief coordinates.

    The criterion is the total belief of the subsets missing x, which is NOT
    in general minimized by the maximal-plausibility element.
    """
    total = outside_sums(belief_from_mass(m))
    return select_optima(m.frame.elements, total, total)


def global_l2_belief(m: MassFunction) -> GlobalResult:
    """Global L2 pick in belief coordinates; the criterion is squared, optima tie on distances."""
    belief = belief_from_mass(m)
    squares = outside_sums(np.square(belief, out=belief))  # b is fresh: square it in place
    return select_optima(m.frame.elements, squares, np.sqrt(squares))


class GammaBox(LinfBox):
    """Linf solution box in belief coordinates, boxed in gamma variables.

    One gamma coordinate per proper subset A containing x, aligned with
    ``members``.  Each interval has width ``2 * b(x^c)``; the box degenerates
    to a point exactly when the input is already consistent on x.  The
    ``point`` is the focused transform, the image of the box's centre.
    """

    def _shift(self, offsets: np.ndarray) -> np.ndarray:
        # every point of the box has the same gamma on the full frame
        return mobius_transform(np.append(offsets, 0.0))


def partial_linf_belief(m: MassFunction, x: str) -> GammaBox:
    """Linf solution box focused on x, in gamma coordinates.

    For each proper A containing x the bound is ``|gamma(A) + b(A minus x)|
    <= b(x^c)``; the attained distance is ``b(x^c)``.  b on the subsets of
    ``x^c`` is the zeta transform of their masses alone, bit for bit.
    """
    # b(B) for each mask B without x, ascending; the last B is x^c
    outside = zeta_transform(m.as_array().reshape(-1, 2, m.frame.singleton(x))[:, 0, :].ravel())
    radius = float(outside[-1])
    members = ultrafilter(m.frame, x)[:-1]  # the full frame is the last, largest mask
    inside = outside[:-1]  # b(A minus x), aligned with the members
    # 0.0 - radius, not -radius: the bound is 0.0, never -0.0, when both terms are 0
    focused = _focused_masses(m, x)
    return GammaBox(x, focused, {math.inf: radius}, members, 0.0 - radius - inside, radius - inside)


def gamma_to_mass(box: GammaBox, gamma_point: np.ndarray) -> PseudoMassFunction:
    """Map a gamma point of the box, aligned with ``box.members``, back to mass coordinates.

    Moebius inversion on the sublattice of sets containing the focus (the
    box's ``_shift``, which also builds its corners) turns the point's
    offsets from the centre ``(lower + upper) / 2`` into mass shifts of
    every member, which are subtracted from the box's ``point``.  Every
    point of the box has the same gamma on the full frame, so its offset
    there is 0, and the centre maps to ``point`` bit for bit.  A point of the
    wrong shape, holding a NaN or more than ``TOL`` outside raises ``ValueError``.
    """
    lower, upper = box.lower, box.upper
    inside = np.shape(gamma_point) == lower.shape and bool(
        ((lower - TOL <= gamma_point) & (gamma_point <= upper + TOL)).all()
    )
    if not inside:
        raise ValueError("gamma point lies outside the solution box")
    return box._shifted(box._shift(gamma_point - (lower + upper) / 2.0))


class Cell(FrozenRecord):
    """One (norm, space) cell: ``select(m)`` is its global selector, which
    returns the optima, tied within ``TOL``, and the criterion values only;
    ``solve(m, x)`` is its partial solver, which returns a
    :class:`~csbf.consistent_mass.Solution` whose ``distances[p]`` is the
    cell's distance and whose ``point`` is a minimizer, for Linf the
    solution box's barycenter.  A row is the one place that pairs a
    criterion with its partial solver.
    """

    def __init__(self, select: Callable, solve: Callable) -> None:
        self._set(select, solve)


#: (norm, space) -> Cell, in report order: the package's one list of cells.
#: The rows name the library functions inside lambdas, as attributes of
#: ``consistent_mass`` and of this module, so they are read at call time,
#: and wrapping a function at its home module's attribute reaches these calls.
CELLS: dict[tuple[float, SpaceKind], Cell] = {
    (1, SpaceKind.MASS_N2): Cell(
        lambda m: consistent_mass.global_l1_mass(m),
        lambda m, x: consistent_mass.partial_l1_mass(m, x),
    ),
    (2, SpaceKind.MASS_N2): Cell(
        lambda m: consistent_mass.global_l2_mass(m, SpaceKind.MASS_N2),
        lambda m, x: consistent_mass.partial_l2_mass(m, x, SpaceKind.MASS_N2),
    ),
    (2, SpaceKind.MASS_N1): Cell(
        lambda m: consistent_mass.global_l2_mass(m, SpaceKind.MASS_N1),
        lambda m, x: consistent_mass.partial_l2_mass(m, x, SpaceKind.MASS_N1),
    ),
    (math.inf, SpaceKind.MASS_N2): Cell(
        lambda m: consistent_mass.global_linf_mass(m),
        lambda m, x: consistent_mass.partial_linf_mass(m, x),
    ),
    (1, SpaceKind.BELIEF): Cell(
        lambda m: global_l1_belief(m),
        lambda m, x: focused_transform(m, x),
    ),
    (2, SpaceKind.BELIEF): Cell(
        lambda m: global_l2_belief(m),
        lambda m, x: focused_transform(m, x),
    ),
    (math.inf, SpaceKind.BELIEF): Cell(
        lambda m: global_linf_belief(m),
        lambda m, x: partial_linf_belief(m, x),
    ),
}
