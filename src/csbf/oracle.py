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
``MAX_ORACLE_FRAME`` elements that simplex has at most 32 vertices, and two
dense tableau engines solve each problem exactly, with numpy alone:

* L1 and Linf are linear programs (L1: ``V^T w - u+ + u- = t``, minimize the
  sum of ``u``; Linf: the epigraph ``|V^T w - t| <= s``, minimize ``s``).
  The unit mass on the full frame is a vertex of both, so each tableau is
  built in canonical form there, Linf's after one pivot of ``s`` into the
  row with the least value, and one simplex phase under Bland's rule
  solves it (:func:`_lp_weights`).
* L2's unique minimizer solves its KKT system, a linear complementarity
  problem, which Lemke's complementary pivoting solves (:func:`_l2_weights`).

Both pick every leaving row by one least-ratio step, :func:`_leaving_row`,
whose smallest-basic-index tie rule is Bland's leaving rule for the simplex
and, after ties on the basis inverse, Lemke's lexicographic rule; both end
through one check that no basic value is below ``-TOL``, :func:`_end_check`.
Neither returns a point off its constraints: an unbounded program, a
tableau gone numerically wrong or the pivot cap raises :class:`OracleError`,
naming the engine.

Every sum is a ufunc multiply-and-sum, never a BLAS or LAPACK call, whose
rounding would follow the CPU kernel OpenBLAS picks at run time.

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
MAX_ORACLE_FRAME = 6

#: Pivots one simplex phase, or one run of Lemke's method, may take before giving up.
LP_MAX_PIVOTS = 1000

#: Pivot, ratio-test and reduced-cost threshold; tableau entries are O(1).
_LP_EPS = 1e-12


class FrameTooLargeError(ValueError):
    """The frame exceeds what exhaustive verification can handle: ``verify`` exits 5 with this."""


class OracleError(RuntimeError):
    """An engine failed: a tableau gone numerically wrong, an unbounded program
    or the pivot cap; ``verify`` exits 8 with this."""


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


def _categorical_coords_matrix(frame: Frame, x: str, kind: SpaceKind) -> tuple:
    """Embedding coordinates of the categorical masses on each ultrafilter member.

    Returns (members, V) with V[i] the embedding of the unit mass on
    members[i]; the full frame is always the last member.
    """
    members = ultrafilter(frame, x)[:, None]
    coords = np.arange(1, _dimension(frame, kind) + 1)
    # belief coordinate A of the unit mass on B is 1 exactly when B is a subset of A
    hits = coords & members == members if kind is SpaceKind.BELIEF else coords == members
    return members.ravel(), hits.astype(float)


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]
    basis[row] = col


def _leaving_row(tab: np.ndarray, basis: np.ndarray, col: int, ray: str, keys=()) -> int:
    """The row that leaves as column ``col`` enters, by the least-ratio test.

    Rows with an entry above ``_LP_EPS`` in ``col`` qualify, and ties within
    ``_LP_EPS`` of the least ratio narrow on the values, then on each ``keys``
    column in turn, stopping at one row.  Rows still tied leave by smallest
    basic index: Bland's rule with no keys, the lexicographic rule with the
    basis inverse as keys.  With no row qualifying, ``col`` runs along a ray
    and ``OracleError(ray)`` is raised.
    """
    rows = np.flatnonzero(tab[:, col] > _LP_EPS)
    if rows.size == 0:
        raise OracleError(ray)
    for j in (-1, *keys):
        ratios = tab[rows, j] / tab[rows, col]
        rows = rows[ratios <= ratios.min() + _LP_EPS]
        if rows.size == 1:
            break
    return rows[np.argmin(basis[rows])]


def _end_check(values: np.ndarray, engine: str) -> None:
    """Both engines end here: a basic value below ``-TOL`` means a tableau gone wrong."""
    if values.min() < -TOL:
        raise OracleError(f"{engine} ended on a basic value {values.min():.3g}")


def _simplex_phase(tab: np.ndarray, basis: np.ndarray) -> None:
    """Pivot until no reduced cost (the last row, left of the values) is negative.

    Bland's rule: the first improving column enters and :func:`_leaving_row`
    picks the leaving row with no keys, so the phase cannot cycle; an
    unbounded program, the pivot cap and the end check of the basic values
    raise ``OracleError``.
    """
    for _ in range(LP_MAX_PIVOTS):
        entering = np.flatnonzero(tab[-1, :-1] < -_LP_EPS)
        if entering.size == 0:
            return _end_check(tab[:-1, -1], "simplex phase")
        col = entering[0]
        row = _leaving_row(tab[:-1], basis, col, "simplex met an unbounded program")
        _pivot(tab, basis, row, col)
    raise OracleError(f"simplex did not finish within {LP_MAX_PIVOTS} pivots")


def _lp_weights(v: np.ndarray, target: np.ndarray, p: float) -> np.ndarray:
    """Ultrafilter weights minimizing the L1 or Linf distance, as one LP.

    The tableau is built in canonical form at the unit mass on the full frame,
    a vertex of both programs, so one simplex phase solves it.  Taking
    w_F = 1 - sum(other w) off every coordinate row leaves the residual
    r = t - V_F on the right and w_F basic in the sum row, the last but one;
    the last row holds the reduced costs, the last column the values.
    """
    k, d = v.shape
    diff, r = v.T - v[-1, :, None], target - v[-1]
    m = d if p == 1 else 2 * d  # coordinate rows
    tab = np.zeros((m + 2, k + 2 * d + (p != 1) + 1))
    tab[m, :k] = tab[m, -1] = 1.0
    at = np.arange(m)
    if p == 1:
        # V^T w - u+ + u- = t; minimize sum(u+) + sum(u-).  Row i starts with
        # u-_i basic when r_i >= 0; else it is negated and u+_i starts basic.
        tab[at, k + at], tab[at, k + d + at] = -1.0, 1.0
        tab[:d, :k], tab[:d, -1] = diff, r
        tab[:d] *= np.where(r < 0, -1.0, 1.0)[:, None]
        basis = np.r_[k + at + d * (r >= 0), k - 1]
        tab[-1, k:-1] = 1.0
        tab[-1] -= tab[:d].sum(axis=0)
    else:
        # V^T w - s + r+ = t and -V^T w - s + r- = -t bound |V^T w - t| by s;
        # minimize s.  r+ and r- start basic, and s enters on the row with the
        # least value, which leaves every value nonnegative.
        tab[:d, :k], tab[d:m, :k] = diff, -diff
        tab[:m, k], tab[at, k + 1 + at] = -1.0, 1.0
        tab[:d, -1], tab[d:m, -1] = r, -r
        tab[-1, k] = 1.0
        basis = np.r_[k + 1 + at, k - 1]
        if d:  # with no coordinates there is no row, and s stays 0
            _pivot(tab, basis, np.argmin(tab[:m, -1]), k)
    _simplex_phase(tab, basis)
    return np.bincount(basis, tab[:-1, -1], tab.shape[1] - 1)[:k]


def _l2_weights(v: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Ultrafilter weights minimizing the L2 distance, by Lemke's method.

    The KKT system is the LCP ``s = M z + q``, ``s, z >= 0``, ``s . z = 0``, over
    ``z = (w, lam+, lam-)`` with ``q = (-V t, -1, 1)``, ``G = V V^T`` and the positive
    semidefinite ``M = [[G, -1, 1], [1^T, 0, 0], [-1^T, 0, 0]]``, which Lemke's method solves.
    """
    k, n = len(v), len(v) + 2
    # Rows s - M z - z0 = q: the s columns, basic at first, hold the basis inverse,
    # and z0 enters on the last least q_i, keeping every row lexicographically positive.
    tab = np.zeros((n, 2 * n + 2))
    tab[:k, :k] = -(v[:, None] * v[None]).sum(axis=2)
    tab[:k, k:n], tab[k:n, :k] = [1.0, -1.0], [[-1.0], [1.0]]
    tab[:, n : 2 * n], tab[:, 2 * n] = np.eye(n), -1.0
    tab[:k, -1], tab[k:, -1] = -(v * target).sum(axis=1), [-1.0, 1.0]
    basis, inverse = np.arange(n, 2 * n), range(n, 2 * n)
    row, col = np.flatnonzero(tab[:, -1] <= tab[:, -1].min() + _LP_EPS)[-1], 2 * n
    for _ in range(LP_MAX_PIVOTS):
        leaving = basis[row]
        _pivot(tab, basis, row, col)
        if leaving == 2 * n:
            _end_check(tab[:, -1], "Lemke's method")
            return np.bincount(basis, tab[:, -1], 2 * n + 1)[:k]
        col = (leaving + n) % (2 * n)  # the complement of the leaving variable
        # ties break on the basis inverse, held in the s columns
        row = _leaving_row(tab, basis, col, "Lemke's method ended on a secondary ray", inverse)
    raise OracleError(f"Lemke's method did not finish within {LP_MAX_PIVOTS} pivots")


def _lp_norm(diff: np.ndarray, p: float) -> float:
    """L1 or L2 norm of a coordinate difference, else Linf; 0.0 with no coordinates."""
    if p == 1:
        return float(np.sum(np.abs(diff)))
    if p == 2:
        return float(np.sqrt(np.sum(diff * diff)))
    return float(np.max(np.abs(diff), initial=0.0))


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
