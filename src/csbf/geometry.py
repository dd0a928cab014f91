"""Vector embeddings of belief functions and Lp geometry on them.

Three Cartesian embeddings are supported, all ordered by ascending subset
mask:

* ``mass-n1``: one mass coordinate per nonempty subset, the full frame
  included; dimension ``2^n - 1``.
* ``mass-n2``: the full-frame coordinate is dropped (it is fixed by
  normalization); dimension ``2^n - 2``.
* ``belief``: belief values of the proper nonempty subsets; dimension
  ``2^n - 2``.

The two mass embeddings are both first class because L2 projection onto the
consistent complex gives genuinely different answers in each; callers must
pick one explicitly.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import Frame, FrozenRecord, PseudoMassFunction, zeta_transform


class SpaceKind(str, Enum):
    MASS_N1 = "mass-n1"
    MASS_N2 = "mass-n2"
    BELIEF = "belief"


class EmbeddingSpace(FrozenRecord):
    def __init__(self, kind: SpaceKind, frame: Frame) -> None:
        self._set(kind, frame)

    @property
    def dimension(self) -> int:
        n_subsets = self.frame.n_subsets
        return n_subsets - 1 if self.kind is SpaceKind.MASS_N1 else n_subsets - 2

    @property
    def coordinate_masks(self) -> range:
        """Subset masks backing each coordinate, in coordinate order."""
        return range(1, self.dimension + 1)


class PointVector(FrozenRecord):
    """Coordinates of a point in an embedding space; compared by identity."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, space: EmbeddingSpace, coords: np.ndarray) -> None:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (space.dimension,):
            raise ValueError(f"expected {space.dimension} coordinates, got {coords.shape}")
        coords.setflags(write=False)
        self._set(space, coords)

    def value_at(self, mask: int) -> float:
        if not 1 <= mask <= self.space.dimension:
            raise ValueError(f"mask {mask} has no coordinate in this space")
        return float(self.coords[mask - 1])


def embed(m: PseudoMassFunction, space: EmbeddingSpace) -> PointVector:
    """Coordinates of a (possibly pseudo) mass function in the given space."""
    if m.frame != space.frame:
        raise ValueError("mass function and embedding space use different frames")
    if space.kind is SpaceKind.BELIEF:
        values = zeta_transform(m.as_array())
    else:
        values = m.as_array()
    return PointVector(space, values[1 : space.dimension + 1])


def lp_distance(u: PointVector, v: PointVector, p: float) -> float:
    """L1, L2 or Linf distance between two points of the same space."""
    if u.space != v.space:
        raise ValueError("points live in different embedding spaces")
    diff = u.coords - v.coords
    if diff.size == 0:
        return 0.0
    if p == 1:
        return float(np.sum(np.abs(diff)))
    if p == 2:
        return float(np.sqrt(np.sum(diff * diff)))
    if p == math.inf:
        return float(np.max(np.abs(diff)))
    raise ValueError(f"unsupported norm order {p!r}")
