"""Exact verification of the closed-form approximations.

Every distance is measured in one of three embeddings, coordinate i being
subset mask i + 1: ``mass-n1`` holds the masses of the 2^n - 1 nonempty
subsets, ``mass-n2`` drops the full frame's, which normalization fixes, and
``belief`` holds the beliefs of the 2^n - 2 proper nonempty subsets.  L2
projection answers differently in the two mass embeddings, so callers pick one.

The oracle minimizes an Lp distance over one component of the consistent
region directly: candidates are *admissible* mass functions supported on the
ultrafilter of the focus element, parametrized by their weights w >= 0,
sum(w) = 1, on the ultrafilter members.  On frames of at most
``MAX_ORACLE_FRAME`` elements that simplex has at most 8 vertices, so each
problem is solved exactly, with numpy alone:

* L1 and Linf are linear programs, solved by a dense two-phase tableau
  simplex under Bland's rule (L1: ``V^T w - u+ + u- = t``, minimize the sum
  of ``u``; Linf: the epigraph ``|V^T w - t| <= s``, minimize ``s``).
  Their sums are ufunc multiply-and-sum, never a BLAS product (``@``),
  whose rounding would follow the CPU kernel OpenBLAS picks at run time.
* L2 has a unique minimizer, which solves the KKT system of its own support;
  every nonempty support is solved (15 at n = 3, 255 at n = 4) and the
  nearest solution with nonnegative weights is kept.

The reported distance is recomputed from the weights found.  Nothing here
reuses the closed forms being checked, they enter only in the final
comparison, through ``CELLS``, the package's one list of (norm, space)
cells, which lives in :mod:`csbf.consistent_belief` and is re-exported
here: :func:`brute_force_partial` reads a row's partial solver and
:func:`library_global` its global selector.  Only ``verify`` imports this
module; ``approximate`` and ``inspect`` never load it.  Every comparison
uses the one tolerance ``TOL``: a distance converges when it is that close
to the closed form, and both argmin sets tie within it by the selectors'
rule, ``select_optima``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping

import numpy as np

from .core import (
    TOL,
    Frame,
    FrozenRecord,
    MassFunction,
    SpaceKind,
    ultrafilter,
    zeta_transform,
)
# The selectors and partial solvers are bound here only for perfbench's
# hook sites on this module (perfbench/spans.py); ``CELLS`` calls them at
# their home modules' attributes.
from .consistent_mass import (
    GlobalResult,
    global_l1_mass,
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
    select_optima,
)
from .consistent_belief import (
    CELLS,
    Cell,
    focused_transform,
    global_l1_belief,
    global_l2_belief,
    global_linf_belief,
    partial_linf_belief,
)

#: Largest frame the oracle will grind through.
MAX_ORACLE_FRAME = 4

#: Pivots one simplex phase may take before giving up.
LP_MAX_PIVOTS = 1000

#: Pivot, ratio-test and reduced-cost threshold; tableau entries are O(1).
_LP_EPS = 1e-12


class FrameTooLargeError(ValueError):
    """The frame exceeds what exhaustive verification can handle: ``verify`` exits 5 with this."""


class OracleReport(FrozenRecord):
    """Outcome of one brute-force minimization, gap included, never hidden."""

    __hash__ = None  # the oracle's point has no hash

    def __init__(
        self,
        focus: str,
        norm: float,
        space: SpaceKind,
        oracle_distance: float,
        closed_form_distance: float,
        oracle_point: MassFunction,
        max_gap: float,
        converged: bool,
    ) -> None:
        self._set(
            focus, norm, space, oracle_distance, closed_form_distance, oracle_point, max_gap, converged
        )


def _cell(p: float, space: SpaceKind, what: str) -> Cell:
    try:
        return CELLS[p, space]
    except KeyError:
        raise ValueError(f"no {what} for norm {p!r} in space {SpaceKind(space).value!r}") from None


def library_global(m: MassFunction, p: float, space: SpaceKind) -> GlobalResult:
    """The library's global selector for one (norm, space) pair, ties within ``TOL``."""
    return _cell(p, space, "global selector").select(m)


# ---------------------------------------------------------------------------
# Candidate parametrization: w holds the masses of the ultrafilter members
# (ascending mask order, the full frame last), w >= 0 and sum(w) = 1; the
# candidate's embedding is w @ V.
# ---------------------------------------------------------------------------


def _dimension(frame: Frame, kind: SpaceKind) -> int:
    """Number of coordinates of the embedding."""
    return frame.n_subsets - 1 if kind is SpaceKind.MASS_N1 else frame.n_subsets - 2


@lru_cache(maxsize=256)
def _categorical_coords_matrix(frame: Frame, x: str, kind: SpaceKind) -> tuple:
    """Embedding coordinates of the categorical masses on each ultrafilter member.

    Returns (members, V) with V[i] the embedding of the unit mass on
    members[i]; the full frame is always the last member.
    """
    members = ultrafilter(frame, x)[:, None]
    coords = np.arange(1, _dimension(frame, kind) + 1)
    # belief coordinate A of the unit mass on B is 1 exactly when B is a subset of A
    hits = coords & members == members if kind is SpaceKind.BELIEF else coords == members
    v = hits.astype(float)
    v.setflags(write=False)
    return members.ravel(), v


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _simplex_phase(tab: np.ndarray, basis: np.ndarray, n_cols: int) -> None:
    """Pivot until no reduced cost in the first ``n_cols`` columns is negative.

    Bland's rule: the first improving column enters and ratio-test ties leave
    by smallest basic index, so the phase cannot cycle; the pivot cap only
    catches a tableau gone numerically wrong.
    """
    for _ in range(LP_MAX_PIVOTS):
        entering = np.flatnonzero(tab[-1, :n_cols] < -_LP_EPS)
        if entering.size == 0:
            return
        col = entering[0]
        rows = np.flatnonzero(tab[:-1, col] > _LP_EPS)
        ratios = tab[rows, -1] / tab[rows, col]
        ties = rows[ratios <= ratios.min() + _LP_EPS]
        _pivot(tab, basis, ties[np.argmin(basis[ties])], col)
    raise RuntimeError(f"simplex did not finish within {LP_MAX_PIVOTS} pivots")


def _lp_min(c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray:
    """A minimizer of ``c @ z`` subject to ``a_eq @ z = b_eq``, ``z >= 0``.

    Two-phase dense tableau simplex; the program must be feasible and bounded.
    The last tableau row holds the reduced costs, the last column the values.
    """
    m, n = a_eq.shape
    sign = np.where(b_eq < 0, -1.0, 1.0)
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a_eq * sign[:, None]
    tab[:m, n:-1] = np.eye(m)
    tab[:m, -1] = b_eq * sign
    # Phase 1 minimizes the sum of the artificial columns, which start basic.
    tab[-1] = -tab[:m].sum(axis=0)
    tab[-1, n:-1] = 0.0
    basis = np.arange(n, n + m)
    _simplex_phase(tab, basis, n)
    for row in np.flatnonzero(basis >= n):
        cols = np.flatnonzero(np.abs(tab[row, :n]) > _LP_EPS)
        if cols.size:  # an all-zero row is redundant and stays so
            _pivot(tab, basis, row, cols[0])
    tab = np.delete(tab, np.s_[n:-1], axis=1)
    basic = basis < n
    tab[-1] = np.append(c, 0.0)
    tab[-1] -= (c[basis[basic], None] * tab[:-1][basic]).sum(axis=0)
    _simplex_phase(tab, basis, n)
    basic = basis < n
    z = np.zeros(n)
    z[basis[basic]] = tab[:-1, -1][basic]
    return z


def _lp_weights(v: np.ndarray, target: np.ndarray, p: float) -> np.ndarray:
    """Ultrafilter weights minimizing the L1 or Linf distance, as one LP."""
    k, d = v.shape
    eye, zeros = np.eye(d), np.zeros((d, d))
    if p == 1:
        # V^T w - u+ + u- = t; minimize sum(u+) + sum(u-).
        a = np.block([[v.T, -eye, eye], [np.ones((1, k)), np.zeros((1, 2 * d))]])
        b = np.append(target, 1.0)
        c = np.r_[np.zeros(k), np.ones(2 * d)]
    else:
        # V^T w - s + r+ = t and -V^T w - s + r- = -t bound |V^T w - t| by s;
        # minimize s.
        ones = np.ones((d, 1))
        a = np.block([
            [v.T, -ones, eye, zeros],
            [-v.T, -ones, zeros, eye],
            [np.ones((1, k)), np.zeros((1, 1 + 2 * d))],
        ])
        b = np.r_[target, -target, 1.0]
        c = np.zeros(k + 1 + 2 * d)
        c[k] = 1.0
    return _lp_min(c, a, b)[:k]


def _l2_weights(v: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Ultrafilter weights minimizing the L2 distance.

    The minimizer solves the KKT system of the equality-constrained problem on
    its own support S, ``[[E_S E_S^T, 1], [1^T, 0]] [w; lam] = [E_S t; 1]``, so
    the best nonnegative solution over every nonempty support is exact.  The
    categorical embeddings are affinely independent, so each system is regular.
    """
    k = v.shape[0]
    best, best_dist = None, math.inf
    for size in range(1, k + 1):
        supports = np.array(list(combinations(range(k), size)))
        e = v[supports]
        kkt = np.ones((len(supports), size + 1, size + 1))
        kkt[:, :size, :size] = e @ e.transpose(0, 2, 1)
        kkt[:, size, size] = 0.0
        rhs = np.ones((len(supports), size + 1, 1))
        rhs[:, :size, 0] = e @ target
        sol = np.linalg.solve(kkt, rhs)[:, :size, 0]
        w = np.zeros((len(supports), k))
        np.put_along_axis(w, supports, sol, axis=1)
        dist = np.linalg.norm(w @ v - target, axis=1)
        dist[sol.min(axis=1) < -_LP_EPS] = math.inf
        i = int(np.argmin(dist))
        if dist[i] < best_dist:
            best, best_dist = w[i], dist[i]
    return best


def _lp_norm(diff: np.ndarray, p: float) -> float:
    """L1 or L2 norm of a coordinate difference, else Linf; 0.0 with no coordinates."""
    if diff.size == 0:
        return 0.0
    if p == 1:
        return float(np.sum(np.abs(diff)))
    if p == 2:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.max(np.abs(diff)))


def brute_force_partial(
    m: MassFunction,
    x: str,
    p: float,
    space: SpaceKind,
) -> OracleReport:
    """Minimize the Lp distance over one consistent component exactly.

    The report always carries the gap against the closed form; ``converged``
    is false when the gap exceeds ``TOL``.
    """
    frame = m.frame
    if frame.size > MAX_ORACLE_FRAME:
        raise FrameTooLargeError(
            f"verification needs a frame of at most {MAX_ORACLE_FRAME} elements"
        )
    kind = SpaceKind(space)  # a member, also when given by its value
    closed_distance = _cell(p, kind, "closed form").solve(m, x).distances[p]
    members, v = _categorical_coords_matrix(frame, x, kind)
    values = zeta_transform(m.as_array()) if kind is SpaceKind.BELIEF else m.as_array()
    target = values[1 : _dimension(frame, kind) + 1]
    w = _l2_weights(v, target) if p == 2 else _lp_weights(v, target, p)
    distance = _lp_norm((w[:, None] * v).sum(axis=0) - target, p)
    point = MassFunction(frame, np.bincount(members, weights=w, minlength=frame.n_subsets))
    gap = abs(distance - closed_distance)
    return OracleReport(
        focus=x,
        norm=p,
        space=kind,
        oracle_distance=distance,
        closed_form_distance=closed_distance,
        oracle_point=point,
        max_gap=gap,
        converged=gap <= TOL,
    )


def globals_agree(result: GlobalResult, reports: Mapping[str, OracleReport]) -> bool:
    """Tolerance-aware set agreement between library and oracle argmins.

    Every library optimum must be oracle-optimal, and every oracle-optimal
    element closed-form-optimal, each set tying the attained distances within
    ``TOL`` by the selectors' own rule, ``select_optima``.
    """
    labels = tuple(reports)
    oracle = np.array([r.oracle_distance for r in reports.values()])
    closed = np.array([r.closed_form_distance for r in reports.values()])
    oracle_loose = set(select_optima(labels, oracle, oracle).optima)
    closed_loose = set(select_optima(labels, closed, closed).optima)
    return set(result.optima) <= oracle_loose <= closed_loose
