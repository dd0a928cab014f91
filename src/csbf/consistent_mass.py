"""Consistent approximation in mass coordinates.

A belief function is consistent when all focal elements share an element x,
i.e. its mass lives on the ultrafilter ``{B : x in B}``.  The consistent
region is a union of simplices, one per element, so approximation proceeds in
two stages: a partial solution per candidate element, then a global pick of
the element(s) at minimal distance.  The ``global_*`` selectors do only the
second stage; ``consistent_belief.CELLS`` pairs each with its partial solver.

Closed forms in mass coordinates (one builder makes their points and the
focused transform of belief space):

* L1 (and L2 in the ``mass-n2`` embedding): keep the masses inside the
  ultrafilter, move everything else onto the full frame.  Distance is the
  total mass moved, ``b(complement of x)``.
* Linf: the solutions form an axis-aligned box, every mass inside the
  ultrafilter free to move by up to the largest single mass outside it.  The
  box barycenter is the L1 solution.
* L2 in the ``mass-n1`` embedding: spread the outside mass evenly over all
  ``2^(n-1)`` ultrafilter members.

Each criterion is a sum or a maximum of m or m**2 over the subsets of
``x^c``.  A selector folds every element at once (:func:`core.outside_sums`);
a partial folds its own half, the masses without x (:func:`core.split`),
with :func:`core.fold`, same bits:

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
    fold,
    outside_sums,
    split,
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

    ``point`` is the box's barycenter as a mass function and ``distances[inf]``
    the attained Linf distance, the half-width of every interval.  The box
    stores nothing it can derive: ``members``, the ultrafilter masks except
    the full frame, ascending, come from the focus, and the bounds ``lower``
    and ``upper`` are ``centre -+ distances[inf]``, aligned with them, where
    a subclass gives the ``centre`` in box coordinates.  Each is read from the
    fields on every access.  A box compares by identity.  A subclass's
    ``_shift`` maps offsets from the centre in box coordinates to the mass
    shifts of the ultrafilter, full frame last.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def frame(self) -> Frame:
        return self.point.frame

    @property
    def members(self) -> np.ndarray:
        return ultrafilter(self.frame, self.focus)[:-1]  # the full frame is the last, largest mask

    # the bounds: the centre minus and plus the half-width
    lower = property(lambda self: self.centre - self.distances[math.inf])
    upper = property(lambda self: self.centre + self.distances[math.inf])

    def corners(self) -> list[PseudoMassFunction]:
        """Every box corner as a (possibly pseudo) mass function.

        Bit j of the corner number picks ``upper[j]``.  The corner with signs
        s in {-1, +1}^k lies ``distance * s`` from the centre in box
        coordinates, so its masses are ``point - distance * _shift(s)``,
        one multiply and one subtract from the stored barycenter.
        """
        ones, distance = np.ones(len(self.members)), self.distances[math.inf]
        return [self._shifted(distance * self._shift(s)) for s in box_corners(-ones, ones)]

    def _shifted(self, shift: np.ndarray) -> PseudoMassFunction:
        """The barycenter minus ``shift`` on the ultrafilter, full frame last."""
        vector = self.point.as_array().copy()
        vector[ultrafilter(self.frame, self.focus)] -= shift
        return PseudoMassFunction(self.frame, vector)


class ApproxBox(LinfBox):
    """Linf solution box in mass coordinates, centred on the partial L1 solution.

    The box coordinates are the members' masses, so the ``centre`` is the
    barycenter's masses on the members.  The full frame is not a box
    coordinate: a corner moves it by minus the sum of the members' moves, so
    every corner sums to one.  Intervals are unclipped, so parts of the box
    may be inadmissible (negative masses); :meth:`admissible_intervals` gives
    the view intersected with [0, 1].
    """

    @property
    def centre(self) -> np.ndarray:
        return self.point.as_array()[self.members]

    def _shift(self, offsets: np.ndarray) -> np.ndarray:
        return np.append(-offsets, offsets.sum())

    def admissible_intervals(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """Intervals intersected with [0, 1], plus a flag when that clips anything."""
        lower, upper = self.lower, self.upper
        lo, hi = np.maximum(0.0, lower), np.minimum(1.0, upper)
        return lo, hi, bool((lo > lower).any() or (hi < upper).any())


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


def _ultrafilter_point(m: MassFunction, xbit: int, added, moved: float = 0.0) -> MassFunction:
    """Each closed-form point: ``m(A) + added`` on every A holding ``xbit``, ``moved`` more on
    the full frame, no mass elsewhere.  ``added`` broadcasts over :func:`core.split`'s half."""
    vector = np.zeros(m.frame.n_subsets)
    np.add(split(m.as_array(), xbit)[1], added, out=split(vector, xbit)[1])
    vector[-1] += moved
    return MassFunction(m.frame, vector)


def partial_l1_mass(m: MassFunction, x: str) -> Solution:
    """L1-closest consistent assignment focused on x (mass-n2 embedding).

    Ultrafilter masses are kept, the outside mass ``b(x^c)`` moves to the
    full frame.  Always admissible.
    """
    xbit = m.frame.singleton(x)
    moved = fold(split(m.as_array(), xbit)[0])
    return Solution(x, _ultrafilter_point(m, xbit, 0.0, moved), {1: moved})


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
    xbit = m.frame.singleton(x)
    outside = split(m.as_array(), xbit)[0]
    slack, moved = fold(outside, np.maximum), fold(outside)
    return ApproxBox(x, _ultrafilter_point(m, xbit, 0.0, moved), {math.inf: slack})


def global_linf_mass(m: MassFunction) -> GlobalResult:
    """Global Linf pick: minimize the maximal mass outside the ultrafilter."""
    largest = outside_sums(m.as_array(), np.maximum)
    return select_optima(m.frame.elements, largest, largest)


def _mass_kind(kind: SpaceKind | str) -> SpaceKind:
    """``kind`` as a :class:`SpaceKind`, which must be a mass embedding."""
    if (kind := SpaceKind(kind)) is SpaceKind.BELIEF:
        raise ValueError("L2 mass approximation needs a mass embedding, got belief")
    return kind


def _l2_criterion(kind: SpaceKind, size: int, moved, squares):
    """Squared L2 distance to the partial L2 solution in ``kind``, from the sums of m
    (``moved``) and of m**2 over the subsets of ``x^c``: n-vectors or floats, same bits.

    Only the outside coordinates differ, and in ``mass-n1`` the full frame, which
    takes the moved mass spread over the ultrafilter; ``mass-n2`` reads no ``moved``.
    """
    if kind is SpaceKind.MASS_N2:
        return squares
    return moved * moved / (1 << (size - 1)) + squares


def partial_l2_mass(m: MassFunction, x: str, kind: SpaceKind) -> Solution:
    """L2-closest consistent assignment focused on x, per mass embedding.

    In ``mass-n2`` the projection coincides with the partial L1 solution; in
    ``mass-n1`` the outside mass is split evenly over the whole ultrafilter.
    Either way ``distances[2]`` is the attained L2 norm in that embedding.
    """
    kind, xbit, size = _mass_kind(kind), m.frame.singleton(x), m.frame.size
    outside = split(m.as_array(), xbit)[0]
    moved = fold(outside)
    distance = math.sqrt(_l2_criterion(kind, size, moved, fold(np.square(outside))))
    if kind is SpaceKind.MASS_N2:
        point = _ultrafilter_point(m, xbit, 0.0, moved)
    else:
        point = _ultrafilter_point(m, xbit, moved / (1 << (size - 1)))
    return Solution(x, point, {2: distance})


def global_l2_mass(m: MassFunction, kind: SpaceKind) -> GlobalResult:
    """Global L2 pick in the chosen mass embedding.

    Criterion values are the squared distances, built from the sum and the
    sum of squares of the masses outside each ultrafilter; optima tie on distances.
    """
    kind, arr = _mass_kind(kind), m.as_array()
    moved = outside_sums(arr) if kind is SpaceKind.MASS_N1 else None
    criterion = _l2_criterion(kind, m.frame.size, moved, outside_sums(arr * arr))
    return select_optima(m.frame.elements, criterion, np.sqrt(criterion))
