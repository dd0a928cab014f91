"""Consistent approximation in mass coordinates.

A belief function is consistent when all focal elements share an element x,
i.e. its mass lives on the ultrafilter ``{B : x in B}``.  The consistent
region is a union of simplices, one per element, so approximation proceeds in
two stages: a partial solution per candidate element, then a global pick of
the element(s) at minimal distance.  The ``global_*`` selectors do only the
second stage; ``consistent_belief.CELLS`` pairs each with its partial solver.

Closed forms in mass coordinates:

* L1 (and L2 in the ``mass-n2`` embedding): keep the masses inside the
  ultrafilter, move everything else onto the full frame.  Distance is the
  total mass moved, ``b(complement of x)``.
* Linf: the solutions form an axis-aligned box, every mass inside the
  ultrafilter free to move by up to the largest single mass outside it.  The
  box barycenter is the L1 solution.
* L2 in the ``mass-n1`` embedding: spread the outside mass evenly over all
  ``2^(n-1)`` ultrafilter members.

Each criterion is a sum or a maximum of m or m**2 over the subsets of
``x^c``, which :func:`core.outside_sums` folds for every element at once.  A
selector takes the whole vector; a partial takes its focus's entry, same bits:

    L1            sum of m = b(x^c)
    L2 mass-n2    sum of m**2                                   (squared)
    L2 mass-n1    sum of m**2 + b(x^c)**2 / 2^(n-1)             (squared)
    Linf          max of m
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import (
    TOL,
    Frame,
    FrozenRecord,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    outside_sums,
    ultrafilter,
)


class Solution(FrozenRecord):
    """The answer of one (norm, space) cell on the ultrafilter of ``focus``.

    ``point`` is the minimizer, or a solution set's barycenter.
    ``distances`` is a read-only ``{p: distance}`` map of the attained Lp
    distances: one entry, or ``{1: d1, 2: d2}`` for the focused transform,
    which is both the L1 and the L2 belief solution.
    """

    __hash__ = None  # the map has no hash

    def __init__(
        self, focus: str, point: PseudoMassFunction, distances: Mapping[float, float]
    ) -> None:
        self._set(focus, point, MappingProxyType(dict(distances)))


class LinfBox(Solution):
    """Linf solution set of one ultrafilter, an axis-aligned box in some coordinates.

    ``point`` is the box's centre as a mass function and ``distances[inf]``
    the attained Linf distance, the half-width of every interval.
    ``members`` are the ultrafilter masks except the full frame, ascending,
    and ``lower`` and ``upper`` the bounds aligned with them.  All three are
    stored as read-only int64 and float copies, so a box compares by
    identity.  A subclass's ``_shift`` maps offsets from the centre in box
    coordinates to the mass shifts of the ultrafilter, full frame last.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        focus: str,
        point: MassFunction,
        distances: Mapping[float, float],
        members: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        arrays = np.array(members, np.int64), np.array(lower, float), np.array(upper, float)
        for arr in arrays:
            if arr.shape != (len(arrays[0]),):
                raise ValueError("box bounds must be 1-D and aligned with the members")
            arr.setflags(write=False)
        self._set(focus, point, MappingProxyType(dict(distances)), *arrays)

    @property
    def frame(self) -> Frame:
        return self.point.frame

    def corners(self) -> list[PseudoMassFunction]:
        """Every box corner as a (possibly pseudo) mass function.

        Bit j of the corner number picks ``upper[j]``.  The corner with signs
        s in {-1, +1}^k lies ``distance * s`` from the centre in box
        coordinates, so its masses are ``point - distance * _shift(s)``,
        one multiply and one subtract from the stored centre.
        """
        ones, distance = np.ones(len(self.members)), self.distances[math.inf]
        return [self._shifted(distance * self._shift(s)) for s in box_corners(-ones, ones)]

    def _shifted(self, shift: np.ndarray) -> PseudoMassFunction:
        """The centre minus ``shift`` on the ultrafilter, full frame last."""
        vector = self.point.as_array().copy()
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


def box_corners(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Every corner of the box, one row each: bit i of the row number picks ``upper[i]``."""
    picks = np.arange(1 << len(lower))[:, None] >> np.arange(len(lower)) & 1
    return np.where(picks.astype(bool), upper, lower)


class GlobalResult(FrozenRecord):
    """Globally optimal focus elements and the criterion they minimize.

    ``optima`` lists every element whose distance ties the minimal distance
    within tolerance, in frame order; ``criterion_values`` maps each element
    to its criterion value, the distance squared for L2.  The partial solutions
    are not built here: a cell's ``solve(m, x)`` in
    ``consistent_belief.CELLS`` gives each as a :class:`Solution`.
    """

    __hash__ = None  # the map has no hash

    def __init__(self, optima: tuple[str, ...], criterion_values: Mapping[str, float]) -> None:
        self._set(optima, MappingProxyType(dict(criterion_values)))


def select_optima(
    labels: Sequence[str], criterion: np.ndarray, distances: np.ndarray
) -> GlobalResult:
    """The one tie rule: the labels within ``TOL`` of the least of ``distances``."""
    distances = distances.tolist()
    best = min(distances)
    optima = tuple(lbl for lbl, d in zip(labels, distances) if d <= best + TOL)
    return GlobalResult(optima, dict(zip(labels, criterion.tolist())))


def _keep_and_move(m: MassFunction, xbit: int, moved: float) -> MassFunction:
    """Ultrafilter masses kept, the outside mass ``moved`` added to the full frame."""
    vector = m.as_array().copy()
    vector.reshape(-1, 2, xbit)[:, 0, :] = 0.0  # the masks without x
    vector[-1] += moved
    return MassFunction(m.frame, vector)


def partial_l1_mass(m: MassFunction, x: str) -> Solution:
    """L1-closest consistent assignment focused on x (mass-n2 embedding).

    Ultrafilter masses are kept, the outside mass ``b(x^c)`` moves to the
    full frame.  Always admissible.
    """
    i = m.frame.index_of(x)
    moved = float(outside_sums(m.as_array())[i])
    return Solution(x, _keep_and_move(m, 1 << i, moved), {1: moved})


def global_l1_mass(m: MassFunction) -> GlobalResult:
    """Global L1 pick in mass and, as ``global_linf_belief``, Linf pick in belief coordinates.

    Both criteria are ``b(x^c)``: both cells pick the maximal-plausibility element(s).
    """
    moved = outside_sums(m.as_array())
    return select_optima(m.frame.elements, moved, moved)


def partial_linf_mass(m: MassFunction, x: str) -> ApproxBox:
    """Linf solution box focused on x (mass-n2 embedding).

    Every ultrafilter coordinate except the full frame ranges over
    ``m(B) +- M`` with M the largest mass outside the ultrafilter; the
    attained distance is M and the barycenter is the partial L1 solution.
    """
    arr, i = m.as_array(), m.frame.index_of(x)
    slack = float(outside_sums(arr, np.maximum)[i])
    members = ultrafilter(m.frame, x)[:-1]  # the full frame is the last, largest mask
    inside = arr[members]
    barycenter = _keep_and_move(m, 1 << i, float(outside_sums(arr)[i]))
    return ApproxBox(x, barycenter, {math.inf: slack}, members, inside - slack, inside + slack)


def global_linf_mass(m: MassFunction) -> GlobalResult:
    """Global Linf pick: minimize the maximal mass outside the ultrafilter."""
    largest = outside_sums(m.as_array(), np.maximum)
    return select_optima(m.frame.elements, largest, largest)


def _mass_kind(kind: SpaceKind | str) -> SpaceKind:
    """``kind`` as a :class:`SpaceKind`, which must be a mass embedding."""
    if (kind := SpaceKind(kind)) is SpaceKind.BELIEF:
        raise ValueError("L2 mass approximation needs a mass embedding, got belief")
    return kind


def _l2_criterion(m: MassFunction, kind: SpaceKind, moved: np.ndarray | None = None) -> np.ndarray:
    """Squared L2 distance from m to each element's partial L2 solution in ``kind``.

    Only the outside coordinates differ, and in ``mass-n1`` the full frame,
    which takes the moved mass ``b(x^c)`` spread over the whole ultrafilter.
    ``moved``, the sums ``b(x^c)`` when the caller holds them, spares a fold.
    """
    arr = m.as_array()
    squares = outside_sums(arr * arr)
    if kind is SpaceKind.MASS_N2:
        return squares
    moved = outside_sums(arr) if moved is None else moved
    return moved * moved / (1 << (m.frame.size - 1)) + squares


def partial_l2_mass(m: MassFunction, x: str, kind: SpaceKind) -> Solution:
    """L2-closest consistent assignment focused on x, per mass embedding.

    In ``mass-n2`` the projection coincides with the partial L1 solution; in
    ``mass-n1`` the outside mass is split evenly over the whole ultrafilter.
    Either way ``distances[2]`` is the attained L2 norm in that embedding.
    """
    kind = _mass_kind(kind)
    frame, arr, i = m.frame, m.as_array(), m.frame.index_of(x)
    moved = outside_sums(arr)
    if kind is SpaceKind.MASS_N2:
        point = _keep_and_move(m, 1 << i, float(moved[i]))
    else:
        members = ultrafilter(frame, x)
        shared = arr[members] + float(moved[i]) / (1 << (frame.size - 1))
        point = MassFunction(frame, np.bincount(members, weights=shared, minlength=frame.n_subsets))
    return Solution(x, point, {2: math.sqrt(_l2_criterion(m, kind, moved)[i])})


def global_l2_mass(m: MassFunction, kind: SpaceKind) -> GlobalResult:
    """Global L2 pick in the chosen mass embedding.

    Criterion values are the squared distances, built from the sum and the
    sum of squares of the masses outside each ultrafilter; optima tie on distances.
    """
    criterion = _l2_criterion(m, _mass_kind(kind))
    return select_optima(m.frame.elements, criterion, np.sqrt(criterion))
