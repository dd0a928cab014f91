"""Paper results the tests check but no command runs.

* :func:`random_mass_function`, the seeded generator behind every random
  draw in the suite;
* :func:`embed`, the tests' reference embedding: a mass function's
  coordinates in mass or belief space as a plain array, whose distances
  the tests take as ``np.linalg.norm(u - v, ord=p)``;
* the categorical inner-product lemma, which lets the belief-space L2
  optimality system row-reduce to the L1 one;
* the search for an input whose global L1 belief pick is not the most
  plausible element;
* :func:`verify_orthogonality`, the L2-optimality certificate of the
  focused transform;
* :func:`in_mass_box`, whether a mass function lies in a mass-space Linf
  solution box.
"""

from __future__ import annotations

import numpy as np

from csbf import (
    ApproxBox,
    Frame,
    MassFunction,
    PseudoMassFunction,
    Solution,
    SpaceKind,
    global_l1_belief,
    global_l1_mass,
)
from csbf.consistent_mass import in_box
from csbf.core import TOL, superset_sum_transform, zeta_transform

#: Most focal elements in a draw without ``full_support``.
MAX_FOCAL = 8


def random_mass_function(
    frame: Frame,
    rng: np.random.Generator,
    *,
    full_support: bool = False,
) -> MassFunction:
    """Draw a random mass assignment on the frame.

    With ``full_support`` the weights are Dirichlet(1, ..., 1) over every
    nonempty subset, uniform on the mass simplex.  Otherwise a small random
    family of at most :data:`MAX_FOCAL` focal elements is picked first, which
    keeps consistent and inconsistent draws both well represented.
    """
    n_subsets = frame.n_subsets
    if full_support:
        masks = np.arange(1, n_subsets)
    else:
        count = int(rng.integers(1, min(MAX_FOCAL, n_subsets - 1) + 1))
        masks = rng.choice(np.arange(1, n_subsets), size=count, replace=False)
    weights = rng.dirichlet(np.ones(len(masks)))
    return MassFunction(frame, np.bincount(masks, weights=weights, minlength=n_subsets))


def embed(m: PseudoMassFunction, kind: SpaceKind) -> np.ndarray:
    """Coordinates of ``m`` in the ``kind`` embedding; coordinate i is subset mask i + 1.

    ``mass-n1`` holds the masses of the nonempty subsets, ``mass-n2`` drops
    the full frame's, and ``belief`` holds the beliefs of the proper
    nonempty subsets.
    """
    values = zeta_transform(m.as_array()) if kind is SpaceKind.BELIEF else m.as_array()
    stop = m.frame.n_subsets if kind is SpaceKind.MASS_N1 else m.frame.full_mask
    return values[1:stop]


def _categorical_dot(frame: Frame, a: int, b: int) -> int:
    # Belief vectors of categorical masses are superset indicators, so their
    # dot product counts the proper supersets of the union.
    return (1 << (frame.complement(a | b)).bit_count()) - 1


def categorical_inner_product(frame: Frame, a: int, b: int) -> int:
    """Belief-space inner product of two categorical belief functions.

    Equals ``2^|complement(A union B)| - 1``, the number of proper subsets of
    the frame containing both A and B.
    """
    if a == 0 or b == 0:
        raise ValueError("categorical belief functions are indexed by nonempty subsets")
    frame.check_mask(a)
    frame.check_mask(b)
    return _categorical_dot(frame, a, b)


def lemma_alternating_sum(frame: Frame, a: int, b: int) -> int:
    """Signed superset sum of categorical inner products.

    Computes ``sum over C superset of B of <b_C, b_A> * (-1)^|C minus B|``.
    For proper B it collapses to the subset indicator: 1 when A is a subset
    of B, else 0; this is what lets the L2 optimality system row-reduce to
    the L1 one in the belief space.  For B equal to the whole frame every
    inner product vanishes and the sum is 0 (that row never occurs in the
    system).
    """
    frame.check_mask(a)
    frame.check_mask(b)
    total = 0
    rest = frame.complement(b)
    sub = rest
    while True:
        sign = -1 if sub.bit_count() & 1 else 1
        total += sign * _categorical_dot(frame, a, b | sub)
        if sub == 0:
            return total
        sub = (sub - 1) & rest


def find_global_l1_counterexample(
    frame: Frame,
    seed: int = 20240,
    max_draws: int = 100_000,
) -> tuple[MassFunction | None, int]:
    """Search for an input whose global L1 belief pick is not maximally plausible.

    Draws masses uniformly (Dirichlet over the full mass simplex, fixed seed)
    until the global L1 optima differ, as a set, from the maximal-plausibility
    elements (the global L1 mass pick).  Returns the witness and the number of
    draws used, or ``(None, max_draws)`` when the search comes up empty.
    """
    rng = np.random.default_rng(seed)
    for draw in range(1, max_draws + 1):
        m = random_mass_function(frame, rng, full_support=True)
        if set(global_l1_belief(m).optima) != set(global_l1_mass(m).optima):
            return m, draw
    return None, max_draws


def verify_orthogonality(m: MassFunction, sol: Solution, tol: float = TOL) -> bool:
    """L2-optimality certificate for a focused transform.

    Checks that the belief-space residual ``m - sol.point`` is orthogonal to
    the categorical belief vector of every proper ultrafilter member, which
    characterizes the projection onto the ultrafilter's span.
    """
    frame = m.frame
    xbit = frame.singleton(sol.focus)
    residual = zeta_transform(m.as_array() - sol.point.as_array())
    # <residual, b_B> = sum of residual over supersets of B; the full frame
    # contributes zero because its coordinate is not part of the space.
    residual[-1] = 0.0
    sums = superset_sum_transform(residual)
    return all(abs(sums[mask]) <= tol for mask in range(1, frame.full_mask) if mask & xbit)


def in_mass_box(box: ApproxBox, masses: PseudoMassFunction, tol: float = TOL) -> bool:
    """Ultrafilter masses within their intervals, every mass outside within ``tol`` of 0.

    A mass function on another frame is never contained.
    """
    if masses.frame != box.frame:
        return False
    arr = masses.as_array()
    outside = arr.reshape(-1, 2, box.frame.singleton(box.focus))[:, 0, :]
    inside = arr[box.members]
    return bool((np.abs(outside) <= tol).all()) and in_box(box.lower, box.upper, inside, tol)
