"""Consistent approximation in belief coordinates.

Unlike the mass-coordinate projections, belief-space projection tells the
ultrafilter members apart by their set relations with the outside focal
elements.  The L1 and L2 projections onto one ultrafilter coincide and equal
the *focused transform*: every focal element B is mapped to ``B union {x}``,
so the new mass of A is ``m(A) + m(A minus x)``.

The Linf solution set is again a box, but an axis-aligned one only in the
triangular "gamma" coordinates, where ``gamma(A)`` accumulates the mass
shifts of the ultrafilter members inside A.  The box is centred on the
focused transform, and a point's offset from the midpoint maps to mass shifts
through Moebius inversion on the sublattice of sets containing x.

:func:`gamma_to_mass` is one O((n-1) 2^(n-1)) Moebius transform.  Each
criterion is one O(n 2^n) transform of ``b = zeta(m)`` read at the coatoms
``x^c``, for all n elements at once; the focused transform reuses it:

    L1            zeta(b)[x^c]
    L2            zeta(b**2)[x^c]    (squared)
    Linf          b[x^c]
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FrozenRecord,
    MassFunction,
    PseudoMassFunction,
    belief_from_mass,
    coatoms,
    mobius_transform,
    superset_sum_transform,
    ultrafilter,
    zeta_transform,
)
from .consistent_mass import TIE_TOL, GlobalResult, LinfBox, in_box, select_optima


class FocusedTransform(FrozenRecord):
    """Focused consistent transform: mass of B moves to ``B union {x}``.

    This is simultaneously the partial L1 and the partial L2 projection in
    belief coordinates; ``distance_l1`` and ``distance_l2`` are the attained
    values of the respective norms.
    """

    def __init__(
        self, focus: str, result: MassFunction, distance_l1: float, distance_l2: float
    ) -> None:
        self._set(focus, result, distance_l1, distance_l2)


def _outside_belief(m: MassFunction) -> tuple[np.ndarray, np.ndarray]:
    """Sum and sum of squares of b(A) over the subsets A of each x^c, in frame order."""
    belief = belief_from_mass(m).belief
    at = coatoms(m.frame)
    return zeta_transform(belief)[at], zeta_transform(belief * belief)[at]


def _focused_masses(m: MassFunction, x: str) -> MassFunction:
    """The focused transform's masses: ``m(A) + m(A minus x)`` on every A containing x."""
    by_x = m.as_array().reshape(-1, 2, m.frame.singleton(x))  # [:, 1, :] holds x, [:, 0, :] not
    moved = np.zeros_like(by_x)
    moved[:, 1, :] = by_x[:, 1, :] + by_x[:, 0, :]
    return MassFunction(m.frame, moved.ravel())


def focused_transform(m: MassFunction, x: str) -> FocusedTransform:
    """Partial L1/L2 belief-space projection onto the ultrafilter of x."""
    total, squares = _outside_belief(m)
    i = m.frame.index_of(x)
    return FocusedTransform(x, _focused_masses(m, x), float(total[i]), math.sqrt(squares[i]))


def verify_orthogonality(m: MassFunction, ft: FocusedTransform, tol: float = TIE_TOL) -> bool:
    """L2-optimality certificate for a focused transform.

    Checks that the belief-space residual is orthogonal to the categorical
    belief vector of every proper ultrafilter member, which characterizes the
    projection onto the ultrafilter's span.
    """
    frame = m.frame
    xbit = frame.singleton(ft.focus)
    residual = zeta_transform(m.as_array() - ft.result.as_array())
    # <residual, b_B> = sum of residual over supersets of B; the full frame
    # contributes zero because its coordinate is not part of the space.
    residual[-1] = 0.0
    sums = superset_sum_transform(residual)
    return all(abs(sums[mask]) <= tol for mask in range(1, frame.full_mask) if mask & xbit)


def global_l1_belief(m: MassFunction, tie_tol: float = TIE_TOL) -> GlobalResult:
    """Global L1 pick in belief coordinates.

    The criterion is the total belief of the subsets missing x, which is NOT
    in general minimized by the maximal-plausibility element.
    """
    total = _outside_belief(m)[0]
    return select_optima(m.frame.elements, total, total, tie_tol)


def global_l2_belief(m: MassFunction, tie_tol: float = TIE_TOL) -> GlobalResult:
    """Global L2 pick in belief coordinates; the criterion is squared, optima tie on distances."""
    squares = _outside_belief(m)[1]
    return select_optima(m.frame.elements, squares, np.sqrt(squares), tie_tol)


class GammaBox(LinfBox):
    """Linf solution box in belief coordinates, boxed in gamma variables.

    One gamma coordinate per proper subset A containing x, aligned with
    ``members``.  Each interval has width ``2 * b(x^c)``; the box degenerates
    to a point exactly when the input is already consistent on x.  The
    ``barycenter`` is the focused transform, the image of the midpoint.
    """

    def midpoint(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def _shift(self, offsets: np.ndarray) -> np.ndarray:
        # every point of the box has the same gamma on the full frame
        return mobius_transform(np.append(offsets, 0.0))

    def contains(self, gamma_point: np.ndarray, tol: float = TIE_TOL) -> bool:
        if np.shape(gamma_point) != self.lower.shape:
            return False
        return in_box(self.lower, self.upper, gamma_point, tol)


def partial_linf_belief(m: MassFunction, x: str) -> GammaBox:
    """Linf solution box focused on x, in gamma coordinates.

    For each proper A containing x the bound is ``|gamma(A) + b(A minus x)|
    <= b(x^c)``; the attained distance is ``b(x^c)``.
    """
    frame = m.frame
    xbit = frame.singleton(x)
    belief = belief_from_mass(m).belief
    radius = float(belief[frame.full_mask ^ xbit])
    members = ultrafilter(frame, x)[:-1]  # the full frame is the last, largest mask
    inside = belief[members ^ xbit]  # b(A minus x)
    # 0.0 - radius, not -radius: the bound is 0.0, never -0.0, when both terms are 0
    return GammaBox(x, members, 0.0 - radius - inside, radius - inside, _focused_masses(m, x), radius)


def gamma_to_mass(box: GammaBox, gamma_point: np.ndarray) -> PseudoMassFunction:
    """Map a gamma point of the box, aligned with ``box.members``, back to mass coordinates.

    Moebius inversion on the sublattice of sets containing the focus (the
    box's ``_shift``, which also builds its corners) turns the point's
    offsets from the midpoint into mass shifts of every member, which are
    subtracted from the barycenter.  Every point of the box has the
    same gamma on the full frame, so its offset there is 0, and the midpoint
    maps to the barycenter bit for bit.  Raises ``ValueError`` when the point
    lies outside the box.
    """
    if not box.contains(gamma_point):
        raise ValueError("gamma point lies outside the solution box")
    return box._shifted(box._shift(gamma_point - box.midpoint()))


def global_linf_belief(m: MassFunction, tie_tol: float = TIE_TOL) -> GlobalResult:
    """Global Linf pick in belief coordinates: maximal-plausibility element(s)."""
    outside = belief_from_mass(m).belief[coatoms(m.frame)]
    return select_optima(m.frame.elements, outside, outside, tie_tol)
