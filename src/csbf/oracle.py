"""Exact verification of the closed-form approximations.

The oracle minimizes an Lp distance over one component of the consistent
region directly: candidates are *admissible* mass functions supported on the
ultrafilter of the focus element, parametrized by their weights w >= 0,
sum(w) = 1, on the ultrafilter members.  On frames of at most
``MAX_ORACLE_FRAME`` elements that simplex has at most 8 vertices, so each
problem is solved exactly, with numpy alone:

* L1 and Linf are linear programs, solved by a dense two-phase tableau
  simplex under Bland's rule (L1: ``V^T w - u+ + u- = t``, minimize the sum
  of ``u``; Linf: the epigraph ``|V^T w - t| <= s``, minimize ``s``).
* L2 has a unique minimizer, which solves the KKT system of its own support;
  every nonempty support is solved (15 at n = 3, 255 at n = 4) and the
  nearest solution with nonnegative weights is kept.

The reported distance is recomputed from the weights found.  Nothing here
reuses the closed forms being checked, they enter only in the final
comparison.  ``CELLS`` is the package's one list of (norm, space) cells: each
row holds the global selector, the partial solver and the closed form read
off a partial.  The CLI's ``approximate`` and ``verify`` run from it;
``SUPPORTED_PAIRS`` lists its keys, and ``closed_form_partial`` and
``library_global`` look it up.  Every comparison uses the one tolerance
``MATCH_TOL``: a distance converges when it is that close to the closed form,
and both argmin sets tie within it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from operator import attrgetter
from typing import Callable, Mapping

import numpy as np

from .core import Frame, FrozenRecord, MassFunction, PseudoMassFunction, ultrafilter
from .consistent_mass import (
    GlobalResult,
    global_l1_mass,
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
)
from . import consistent_belief
from .consistent_belief import (
    focused_transform,
    global_l1_belief,
    global_l2_belief,
    global_linf_belief,
    partial_linf_belief,
)
from .geometry import EmbeddingSpace, PointVector, SpaceKind, embed, lp_distance

#: Largest frame the oracle will grind through.
MAX_ORACLE_FRAME = 4

#: Pivots one simplex phase may take before giving up.
LP_MAX_PIVOTS = 1000

#: Pivot, ratio-test and reduced-cost threshold; tableau entries are O(1).
_LP_EPS = 1e-12

#: How closely the oracle must reproduce a closed-form distance, and the tie
#: tolerance of the global argmin sets on both sides of the comparison.
MATCH_TOL = 1e-9


class FrameTooLargeError(ValueError):
    """The frame exceeds what exhaustive verification can handle."""


class OracleReport(FrozenRecord):
    """Outcome of one brute-force minimization, gap included, never hidden."""

    def __init__(
        self,
        focus: str,
        norm: float,
        space: EmbeddingSpace,
        oracle_distance: float,
        closed_form_distance: float,
        oracle_point: MassFunction,
        max_gap: float,
        converged: bool,
    ) -> None:
        self._set(
            focus, norm, space, oracle_distance, closed_form_distance, oracle_point, max_gap, converged
        )


class Cell(FrozenRecord):
    """One (norm, space) cell: ``select(m, tie_tol)`` is its global selector,
    ``solve(m, x)`` its partial solver, and ``closed(partial)`` reads off a
    partial's distance and a minimizer, for Linf the solution-set barycenter.
    """

    def __init__(self, select: Callable, solve: Callable, closed: Callable) -> None:
        self._set(select, solve, closed)


#: (norm, space) -> Cell, in report order: the package's one list of cells.
#: The rows name the library functions inside lambdas, so they are read from
#: this module's namespace (``gamma_to_mass`` from ``consistent_belief``'s) at
#: call time, and wrapping a module attribute reaches these calls.
CELLS: dict[tuple[float, SpaceKind], Cell] = {
    (1, SpaceKind.MASS_N2): Cell(
        lambda m, t: global_l1_mass(m, t),
        lambda m, x: partial_l1_mass(m, x),
        attrgetter("distance", "result"),
    ),
    (2, SpaceKind.MASS_N2): Cell(
        lambda m, t: global_l2_mass(m, SpaceKind.MASS_N2, t),
        lambda m, x: partial_l2_mass(m, x, SpaceKind.MASS_N2),
        attrgetter("distance", "result"),
    ),
    (2, SpaceKind.MASS_N1): Cell(
        lambda m, t: global_l2_mass(m, SpaceKind.MASS_N1, t),
        lambda m, x: partial_l2_mass(m, x, SpaceKind.MASS_N1),
        attrgetter("distance", "result"),
    ),
    (math.inf, SpaceKind.MASS_N2): Cell(
        lambda m, t: global_linf_mass(m, t),
        lambda m, x: partial_linf_mass(m, x),
        attrgetter("distance", "barycenter"),
    ),
    (1, SpaceKind.BELIEF): Cell(
        lambda m, t: global_l1_belief(m, t),
        lambda m, x: focused_transform(m, x),
        attrgetter("distance_l1", "result"),
    ),
    (2, SpaceKind.BELIEF): Cell(
        lambda m, t: global_l2_belief(m, t),
        lambda m, x: focused_transform(m, x),
        attrgetter("distance_l2", "result"),
    ),
    (math.inf, SpaceKind.BELIEF): Cell(
        lambda m, t: global_linf_belief(m, t),
        lambda m, x: partial_linf_belief(m, x),
        lambda box: (box.distance, consistent_belief.gamma_to_mass(box, box.midpoint())),
    ),
}

#: Norm/space pairs with a closed form to compare against, in report order.
SUPPORTED_PAIRS: tuple[tuple[float, SpaceKind], ...] = tuple(CELLS)


def _cell(p: float, space: SpaceKind, what: str) -> Cell:
    try:
        return CELLS[p, space]
    except KeyError:
        raise ValueError(f"no {what} for norm {p!r} in space {space.value!r}") from None


def closed_form_partial(
    m: MassFunction, x: str, p: float, space: SpaceKind
) -> tuple[float, PseudoMassFunction]:
    """Library closed form for one (norm, space, focus): distance and a minimizer.

    For Linf the returned point is the solution-set barycenter.
    """
    cell = _cell(p, space, "closed form")
    return cell.closed(cell.solve(m, x))


def library_global(m: MassFunction, p: float, space: SpaceKind) -> GlobalResult:
    """The library's global selector for one (norm, space) pair, ties within ``MATCH_TOL``."""
    return _cell(p, space, "global selector").select(m, MATCH_TOL)


# ---------------------------------------------------------------------------
# Candidate parametrization: w holds the masses of the ultrafilter members
# (ascending mask order, the full frame last), w >= 0 and sum(w) = 1; the
# candidate's embedding is w @ V.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _categorical_coords_matrix(frame: Frame, x: str, kind: SpaceKind) -> tuple:
    """Embedding coordinates of the categorical masses on each ultrafilter member.

    Returns (members, V) with V[i] the embedding of the unit mass on
    members[i]; the full frame is always the last member.
    """
    space = EmbeddingSpace(kind, frame)
    members = ultrafilter(frame, x)
    dim = space.dimension
    v = np.zeros((len(members), dim))
    for i, member in enumerate(members.tolist()):
        if kind is SpaceKind.BELIEF:
            for coord in range(1, dim + 1):
                if coord & member == member:
                    v[i, coord - 1] = 1.0
        else:
            if member <= dim:
                v[i, member - 1] = 1.0
    v.setflags(write=False)
    return members, v


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
    tab[-1] -= c[basis[basic]] @ tab[:-1][basic]
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


def brute_force_partial(
    m: MassFunction,
    x: str,
    p: float,
    space: SpaceKind,
) -> OracleReport:
    """Minimize the Lp distance over one consistent component exactly.

    The report always carries the gap against the closed form; ``converged``
    is false when the gap exceeds ``MATCH_TOL``.
    """
    frame = m.frame
    if frame.size > MAX_ORACLE_FRAME:
        raise FrameTooLargeError(
            f"brute-force verification supports frames of size <= {MAX_ORACLE_FRAME}"
        )
    emb_space = EmbeddingSpace(space, frame)
    members, v = _categorical_coords_matrix(frame, x, space)
    target = embed(m, emb_space)
    w = _l2_weights(v, target.coords) if p == 2 else _lp_weights(v, target.coords, p)
    distance = lp_distance(PointVector(emb_space, w @ v), target, p)
    point = MassFunction(frame, dict(zip(members.tolist(), w.tolist())))
    closed_distance, _ = closed_form_partial(m, x, p, space)
    gap = abs(distance - closed_distance)
    return OracleReport(
        focus=x,
        norm=p,
        space=emb_space,
        oracle_distance=distance,
        closed_form_distance=closed_distance,
        oracle_point=point,
        max_gap=gap,
        converged=gap <= MATCH_TOL,
    )


def globals_agree(result: GlobalResult, reports: Mapping[str, OracleReport]) -> bool:
    """Tolerance-aware set agreement between library and oracle argmins.

    Every library optimum must be oracle-optimal within the match tolerance,
    and every oracle-optimal element (within the same tolerance) must be
    closed-form-optimal within it, both measured on the attained distances
    (same scale on both sides).
    """
    closed = {x: r.closed_form_distance for x, r in reports.items()}
    oracle = {x: r.oracle_distance for x, r in reports.items()}
    closed_min = min(closed.values())
    oracle_min = min(oracle.values())
    oracle_loose = {x for x, d in oracle.items() if d <= oracle_min + MATCH_TOL}
    closed_loose = {x for x, d in closed.items() if d <= closed_min + MATCH_TOL}
    return set(result.optima) <= oracle_loose and oracle_loose <= closed_loose
