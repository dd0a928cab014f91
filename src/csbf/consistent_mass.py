"""Consistent approximation in mass coordinates.

A belief function is consistent when all focal elements share an element x,
i.e. its mass lives on the ultrafilter ``{B : x in B}``.  The consistent
region is a union of simplices, one per element, so approximation proceeds in
two stages: a partial solution per candidate element, then a global pick of
the element(s) at minimal distance.  The ``global_*`` selectors do only the
second stage; ``oracle.CELLS`` pairs each with its partial solver.

Closed forms in mass coordinates:

* L1 (and L2 in the ``mass-n2`` embedding): keep the masses inside the
  ultrafilter, move everything else onto the full frame.  Distance is the
  total mass moved, ``b(complement of x)``.
* Linf: the solutions form an axis-aligned box, every mass inside the
  ultrafilter free to move by up to the largest single mass outside it.  The
  box barycenter is the L1 solution.
* L2 in the ``mass-n1`` embedding: spread the outside mass evenly over all
  ``2^(n-1)`` ultrafilter members.

Each criterion is one O(n 2^n) lattice transform of the dense mass vector m,
read at the coatoms ``x^c`` for all n elements; partial solutions read their
distance off the same transform:

    L1            zeta(m)[x^c]
    L2 mass-n2    zeta(m**2)[x^c]                                (squared)
    L2 mass-n1    zeta(m**2)[x^c] + zeta(m)[x^c]**2 / 2^(n-1)    (squared)
    Linf          submax(m)[x^c]
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import (
    Frame,
    FrozenRecord,
    MassFunction,
    PseudoMassFunction,
    coatoms,
    submax_transform,
    ultrafilter,
    zeta_transform,
)
from .geometry import EmbeddingSpace, SpaceKind

#: Tie tolerance when collecting globally optimal elements.
TIE_TOL = 1e-9


class PartialApprox(FrozenRecord):
    """Best consistent approximation supported on one ultrafilter.

    ``distance`` is the attained norm value, measured in ``space``.
    """

    def __init__(
        self, focus: str, result: PseudoMassFunction, distance: float, space: EmbeddingSpace
    ) -> None:
        self._set(focus, result, distance, space)


class LinfBox(FrozenRecord):
    """Linf solution set of one ultrafilter, an axis-aligned box in some coordinates.

    ``members`` are the ultrafilter masks except the full frame, ascending,
    and ``lower`` and ``upper`` the bounds aligned with them.  All three are
    stored as read-only int64 and float copies, so a box compares by
    identity.  ``barycenter`` is the box's centre as a mass function and
    ``distance`` the attained Linf distance, the half-width of every
    interval.  A subclass's ``_shift`` maps offsets from the centre in box
    coordinates to the mass shifts of the ultrafilter, full frame last.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        focus: str,
        members: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        barycenter: MassFunction,
        distance: float,
    ) -> None:
        arrays = np.array(members, np.int64), np.array(lower, float), np.array(upper, float)
        for arr in arrays:
            if arr.shape != (len(arrays[0]),):
                raise ValueError("box bounds must be 1-D and aligned with the members")
            arr.setflags(write=False)
        self._set(focus, *arrays, barycenter, distance)

    @property
    def frame(self) -> Frame:
        return self.barycenter.frame

    def corners(self) -> list[PseudoMassFunction]:
        """Every box corner as a (possibly pseudo) mass function.

        Bit j of the corner number picks ``upper[j]``.  The corner with signs
        s in {-1, +1}^k lies ``distance * s`` from the centre in box
        coordinates, so its masses are ``barycenter - distance * _shift(s)``,
        one multiply and one subtract from the stored centre.
        """
        ones = np.ones(len(self.members))
        return [self._shifted(self.distance * self._shift(s)) for s in box_corners(-ones, ones)]

    def _shifted(self, shift: np.ndarray) -> PseudoMassFunction:
        """The barycenter minus ``shift`` on the ultrafilter, full frame last."""
        vector = self.barycenter.as_array().copy()
        vector[np.append(self.members, self.frame.full_mask)] -= shift
        return PseudoMassFunction(self.frame, vector)


class ApproxBox(LinfBox):
    """Linf solution box in mass coordinates, centred on the partial L1 solution.

    The full frame is not a box coordinate: a corner moves it by minus the
    sum of the members' moves, so every corner sums to one.  Intervals are
    stored unclipped, so parts of the box may be inadmissible (negative
    masses); :meth:`admissible_intervals` gives the view intersected with
    [0, 1].
    """

    def _shift(self, offsets: np.ndarray) -> np.ndarray:
        return np.append(-offsets, offsets.sum())

    def admissible_intervals(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Intervals intersected with [0, 1], plus a flag when that clips anything."""
        lo, hi = np.maximum(0.0, self.lower), np.minimum(1.0, self.upper)
        return lo, hi, bool((lo > self.lower).any() or (hi < self.upper).any())

    def contains(self, masses: PseudoMassFunction, tol: float = TIE_TOL) -> bool:
        """Ultrafilter masses within their intervals, every mass outside within ``tol`` of 0.

        A mass function on another frame is never contained.
        """
        if masses.frame != self.frame:
            return False
        arr = masses.as_array()
        outside = arr.reshape(-1, 2, self.frame.singleton(self.focus))[:, 0, :]
        inside = arr[self.members]
        return bool((np.abs(outside) <= tol).all()) and in_box(self.lower, self.upper, inside, tol)


def box_corners(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Every corner of the box, one row each: bit i of the row number picks ``upper[i]``."""
    picks = np.arange(1 << len(lower))[:, None] >> np.arange(len(lower)) & 1
    return np.where(picks.astype(bool), upper, lower)


def in_box(lower: np.ndarray, upper: np.ndarray, point: np.ndarray, tol: float) -> bool:
    """``lower - tol <= point <= upper + tol`` everywhere; NaN is outside."""
    return bool(((lower - tol <= point) & (point <= upper + tol)).all())


class GlobalResult(FrozenRecord):
    """Globally optimal focus elements and the criterion they minimize.

    ``optima`` lists every element whose criterion value ties the minimum
    within tolerance, in frame order; ``criterion_values`` maps each element
    to its value.  The partial solutions are not built here: a cell's
    ``solve(m, x)`` in ``oracle.CELLS`` gives the one for each optimum.
    """

    def __init__(self, optima: tuple[str, ...], criterion_values: Mapping[str, float]) -> None:
        self._set(optima, MappingProxyType(dict(criterion_values)))


def select_optima(frame: Frame, values: np.ndarray, tie_tol: float) -> GlobalResult:
    """Every element whose criterion value ties the minimum within ``tie_tol``."""
    criterion = dict(zip(frame.elements, values.tolist()))
    best = min(criterion.values())
    optima = tuple(lbl for lbl in frame.elements if criterion[lbl] <= best + tie_tol)
    return GlobalResult(optima, criterion)


def _moved(m: PseudoMassFunction) -> np.ndarray:
    """Mass outside each element's ultrafilter, ``b(x^c) = zeta(m)[x^c]``."""
    return zeta_transform(m.as_array())[coatoms(m.frame)]


def _keep_and_move(m: MassFunction, xbit: int, moved: float) -> MassFunction:
    """Ultrafilter masses kept, the outside mass ``moved`` added to the full frame."""
    vector = m.as_array().copy()
    vector.reshape(-1, 2, xbit)[:, 0, :] = 0.0  # the masks without x
    vector[-1] += moved
    return MassFunction(m.frame, vector)


def partial_l1_mass(m: MassFunction, x: str) -> PartialApprox:
    """L1-closest consistent assignment focused on x (mass-n2 embedding).

    Ultrafilter masses are kept, the outside mass ``b(x^c)`` moves to the
    full frame.  Always admissible.
    """
    frame = m.frame
    moved = float(_moved(m)[frame.index_of(x)])
    result = _keep_and_move(m, frame.singleton(x), moved)
    return PartialApprox(x, result, moved, EmbeddingSpace(SpaceKind.MASS_N2, frame))


def global_l1_mass(m: MassFunction, tie_tol: float = TIE_TOL) -> GlobalResult:
    """Global L1 pick: the maximal-plausibility element(s)."""
    return select_optima(m.frame, _moved(m), tie_tol)


def _largest_outside(m: MassFunction) -> np.ndarray:
    """Largest single mass outside each element's ultrafilter, ``submax(m)[x^c]``."""
    return submax_transform(m.as_array())[coatoms(m.frame)]


def partial_linf_mass(m: MassFunction, x: str) -> ApproxBox:
    """Linf solution box focused on x (mass-n2 embedding).

    Every ultrafilter coordinate except the full frame ranges over
    ``m(B) +- M`` with M the largest mass outside the ultrafilter; the
    attained distance is M and the barycenter is the partial L1 solution.
    """
    frame = m.frame
    i = frame.index_of(x)
    slack = float(_largest_outside(m)[i])
    members = ultrafilter(frame, x)[:-1]  # the full frame is the last, largest mask
    inside = m.as_array()[members]
    barycenter = _keep_and_move(m, frame.singleton(x), float(_moved(m)[i]))
    return ApproxBox(x, members, inside - slack, inside + slack, barycenter, slack)


def global_linf_mass(m: MassFunction, tie_tol: float = TIE_TOL) -> GlobalResult:
    """Global Linf pick: minimize the maximal mass outside the ultrafilter."""
    return select_optima(m.frame, _largest_outside(m), tie_tol)


def _l2_criterion(m: MassFunction, kind: SpaceKind) -> np.ndarray:
    """Squared L2 distance from m to each partial L2 solution in ``kind``.

    In ``mass-n2`` the projection leaves every free coordinate untouched, so
    only the fixed outside coordinates contribute; ``mass-n1`` adds the full
    frame coordinate, which absorbs the moved mass spread over the whole
    ultrafilter.
    """
    arr = m.as_array()
    squares = zeta_transform(arr * arr)[coatoms(m.frame)]
    if kind is SpaceKind.MASS_N2:
        return squares
    moved = _moved(m)
    return moved * moved / (1 << (m.frame.size - 1)) + squares


def partial_l2_mass(m: MassFunction, x: str, kind: SpaceKind) -> PartialApprox:
    """L2-closest consistent assignment focused on x, per mass embedding.

    In ``mass-n2`` the projection coincides with the partial L1 solution; in
    ``mass-n1`` the outside mass is split evenly over the whole ultrafilter.
    Either way ``distance`` is the attained L2 norm in that embedding.
    """
    frame = m.frame
    i = frame.index_of(x)
    moved = float(_moved(m)[i])
    if kind is SpaceKind.MASS_N2:
        result = _keep_and_move(m, frame.singleton(x), moved)
    elif kind is SpaceKind.MASS_N1:
        members = ultrafilter(frame, x)
        shared = m.as_array()[members] + moved / (1 << (frame.size - 1))
        result = MassFunction(frame, np.bincount(members, weights=shared, minlength=frame.n_subsets))
    else:
        raise ValueError("L2 mass approximation needs a mass embedding, got belief")
    distance = math.sqrt(_l2_criterion(m, kind)[i])
    return PartialApprox(x, result, distance, EmbeddingSpace(kind, frame))


def global_l2_mass(m: MassFunction, kind: SpaceKind, tie_tol: float = TIE_TOL) -> GlobalResult:
    """Global L2 pick in the chosen mass embedding.

    Criterion values are the squared distances, built from the sum and the
    sum of squares of the masses outside each ultrafilter.
    """
    return select_optima(m.frame, _l2_criterion(m, kind), tie_tol)
