import ast
import importlib.util
import json
import math
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import csbf
from csbf import (
    Frame,
    FrameTooLargeError,
    MassFunction,
    Solution,
    SpaceKind,
    brute_force_partial,
    focused_transform,
    gamma_to_mass,
    partial_linf_belief,
    partial_linf_mass,
    ultrafilter,
)
from csbf import cli, oracle
from csbf.consistent_mass import LinfBox
from csbf.core import TOL
from csbf.oracle import CELLS, OracleError, globals_agree, library_global

from conftest import frame_of_size, masses_close, run_python
from paper_maths import embed, in_mass_box, random_mass_function
from test_golden import MODES, TERNARY


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def oracle_agrees(m, p, kind):
    """Brute-force every partial distance and compare argmin sets with the library's."""
    reports = {x: brute_force_partial(m, x, p, kind) for x in m.frame.elements}
    return globals_agree(library_global(m, p, kind), reports)


class TestBruteForcePartial:
    def test_vacuous_is_its_own_approximation(self):
        # at n = 1 the mass-n2 and belief embeddings have no coordinates
        for n in (1, 3):
            m = MassFunction.vacuous(frame_of_size(n))
            for p, kind in CELLS:
                report = brute_force_partial(m, "x", p, kind)
                assert report.oracle_distance == pytest.approx(0.0, abs=1e-12)
                assert masses_close(report.oracle_point, m, tol=1e-9)
                if n == 1:
                    assert report.oracle_distance == 0.0 and report.oracle_point == m

    def test_l2_belief_point_matches_focused_transform(self, ternary):
        report = brute_force_partial(ternary, "x", 2, SpaceKind.BELIEF)
        expected = focused_transform(ternary, "x").point
        assert masses_close(report.oracle_point, expected, tol=1e-9)

    def test_linf_incumbent_lies_in_the_box(self, rng):
        frame = frame_of_size(3)
        for _ in range(5):
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                report = brute_force_partial(m, label, math.inf, SpaceKind.MASS_N2)
                box = partial_linf_mass(m, label)
                assert in_mass_box(box, report.oracle_point, tol=TOL)

    def test_deterministic_for_fixed_seed(self, ternary):
        a = brute_force_partial(ternary, "y", 1, SpaceKind.BELIEF)
        b = brute_force_partial(ternary, "y", 1, SpaceKind.BELIEF)
        assert a.oracle_distance == b.oracle_distance
        assert masses_close(a.oracle_point, b.oracle_point, tol=0.0)

    def test_frame_too_large_rejected(self):
        frame = frame_of_size(7)
        m = MassFunction.vacuous(frame)
        with pytest.raises(FrameTooLargeError, match="at most 6 elements$"):
            brute_force_partial(m, "x", 1, SpaceKind.MASS_N2)

    def test_space_given_by_its_value_is_that_space(self, ternary):
        for p, kind in CELLS:
            for x in ternary.frame.elements:
                by_value = brute_force_partial(ternary, x, p, kind.value)
                assert by_value == brute_force_partial(ternary, x, p, kind), (p, kind.value, x)
                assert by_value.converged and by_value.space is kind

    def test_lp_pivot_cap_raises(self, ternary, monkeypatch):
        # the cap bounds one simplex phase (L1, Linf) and one run of Lemke's method (L2)
        monkeypatch.setattr(oracle, "LP_MAX_PIVOTS", 1)
        with pytest.raises(OracleError, match="^simplex did not finish within 1 pivots$"):
            brute_force_partial(ternary, "x", 1, SpaceKind.MASS_N2)
        with pytest.raises(OracleError, match="^Lemke's method did not finish within 1 pivots$"):
            brute_force_partial(ternary, "x", 2, SpaceKind.BELIEF)

    def test_simplex_phase_on_a_small_program(self):
        # max x1 + x2 s.t. x1 + 2 x2 + x3 = 4 and 3 x1 + x2 + x4 = 6, from the
        # canonical tableau at the slack vertex; the last row holds the costs
        tab = np.array([[1.0, 2, 1, 0, 4], [3, 1, 0, 1, 6], [-1, -1, 0, 0, 0]])
        basis = np.array([2, 3])
        oracle._simplex_phase(tab, basis)
        assert np.bincount(basis, tab[:-1, -1], 4) == pytest.approx([1.6, 1.2, 0, 0], abs=1e-12)

    def test_simplex_phase_raises_on_a_negative_basic_value(self, monkeypatch):
        # a ratio test loose by 0.5 stands in for a tableau gone numerically
        # wrong: on x1 + x2 = 1.3, x1 + x3 = 1, from x2 and x3 basic, it lets
        # x1 enter at 1.3
        monkeypatch.setattr(oracle, "_LP_EPS", 0.5)
        tab = np.array([[1.0, 1, 0, 1.3], [1, 0, 1, 1], [-1, 0, 0, 0]])
        with pytest.raises(OracleError, match="^simplex phase ended on a basic value -0.3$"):
            oracle._simplex_phase(tab, np.array([1, 2]))

    def test_simplex_phase_raises_on_an_unbounded_program(self):
        # minimize -x1 subject to -x1 + x2 = 0, from x2 basic: x1 = x2 grows
        # without bound, and the entering column has no positive entry to leave on
        tab = np.array([[-1.0, 1, 0], [-1, 0, 0]])
        with pytest.raises(OracleError, match="^simplex met an unbounded program$"):
            oracle._simplex_phase(tab, np.array([1]))

    @pytest.mark.parametrize(
        "eps, v, target, error",
        [
            # the end check reads every basic value: here the slack of sum(w) <= 1
            # ends at -0.5, while the weights (1.5, 0) are nonnegative
            (0.5, [[1.0, 1.0], [0.0, 1.0]], [1.5, 1.5], "a basic value -0.5"),
            (10.0, [[1.0, 0.0], [0.0, 0.0]], [1.5, -1.0], "a secondary ray"),
        ],
        ids=["0.5-a basic value -0.5", "10.0-a secondary ray"],
    )
    def test_l2_weights_fail_loudly(self, monkeypatch, eps, v, target, error):
        # a ratio test this loose stands in for a tableau gone numerically wrong
        monkeypatch.setattr(oracle, "_LP_EPS", eps)
        with pytest.raises(OracleError, match=f"^Lemke's method ended on {error}$"):
            oracle._l2_weights(np.array(v), np.array(target))

    def test_l2_weights_stay_on_the_simplex(self):
        # Unit masses on {x} and on the frame {x, y}, in mass-n2 coordinates:
        # the target (2, -1) projects onto their affine hull at w = (2, -1),
        # so the nearest point of the simplex is the vertex {x}.
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert oracle._l2_weights(v, np.array([2.0, -1.0])) == pytest.approx([1.0, 0.0])


class TestExhaustiveGlobalCheck:
    def test_uniform_bayesian_ties_every_singleton(self):
        frame = frame_of_size(3)
        m = MassFunction.from_labels(frame, {"x": 1 / 3, "y": 1 / 3, "z": 1 / 3})
        for p, kind in CELLS:
            reports = {
                lbl: brute_force_partial(m, lbl, p, kind) for lbl in frame.elements
            }
            distances = [r.oracle_distance for r in reports.values()]
            assert max(distances) - min(distances) <= TOL
            assert oracle_agrees(m, p, kind)


def test_table_has_exactly_the_supported_cells(ternary):
    for (p, kind), cell in CELLS.items():
        sol = cell.solve(ternary, "x")
        assert sol.distances[p] >= 0.0 and sol.point.frame == ternary.frame
        assert "x" in library_global(ternary, p, kind).criterion_values
    for p, kind in ((1, SpaceKind.MASS_N1), (math.inf, SpaceKind.MASS_N1), (3, SpaceKind.MASS_N2)):
        assert (p, kind) not in CELLS
        for space in (kind, kind.value):  # a kind given by its value names it the same way
            where = f"for norm {p!r} in space '{kind.value}'"
            with pytest.raises(ValueError, match=f"no closed form {where}"):
                brute_force_partial(ternary, "x", p, space)
            with pytest.raises(ValueError, match=f"no global selector {where}"):
                library_global(ternary, p, space)


def perfbench_spans(monkeypatch):
    """perfbench/spans.py, loaded as a module of its own."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    return spans


def test_every_perfbench_hook_measures_calls(monkeypatch, capsys):
    # a resolving hook can still read 0 calls, when the commands reach the
    # function through some other attribute: each table row's selector and
    # solver must show in its own commands' spans, and every span name but
    # gamma_to_mass, which no command runs, must record calls
    spans = perfbench_spans(monkeypatch)
    row_spans = {
        "l1-belief": "consistent_belief.focused_transform",
        "l2-belief": "consistent_belief.focused_transform",
        "linf-belief": "consistent_belief.partial_linf_belief",
    }
    runs = [
        (["approximate", str(TERNARY), *flags, *where],
         {f"consistent_{mode.split('-')[1]}.select", row_spans.get(mode, "consistent_mass.partial")})
        for mode, flags in MODES.items()
        for where in (["--focus", "x"], ["--global"])
    ]
    runs += [(["inspect", str(TERNARY)], {"core.belief_from_mass"})]
    runs += [(["verify", str(TERNARY)], {"oracle.brute_force_partial", "oracle.library_global"})]
    tracer = spans.Tracer()
    with tracer.installed():
        for i, (argv, _) in enumerate(runs):
            tracer.command = i
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert tracer.absent == {}
    for i, (argv, expected) in enumerate(runs):
        seen = {span.name for span in tracer.spans if span.command == i}
        if "--focus" in argv:  # a partial alone: no selector runs
            expected = {name for name in expected if not name.endswith(".select")}
        assert expected | {"cli.command", "cli.load_input"} <= seen, argv
        if argv[0] == "approximate":  # its own family's selector span alone, if any
            assert {name for name in seen if name.endswith(".select")} == {
                name for name in expected if name.endswith(".select")
            }, argv
    calls = {name: count for name, (_, count) in tracer.layer_totals().items()}
    assert calls.keys() == spans.HOOKS.keys()
    assert calls.pop("consistent_belief.gamma_to_mass") == 0
    assert calls["cli.command"] == len(runs)
    assert all(calls.values()), calls


@pytest.mark.parametrize("n", range(2, 7))
def test_every_cell_answers_with_one_solution_record(n):
    # a row's solver returns a Solution focused on x (a Linf box for Linf)
    # whose point is consistent on x and whose distances[p] is the distance
    # from m to that point in the cell's embedding: a Linf box's barycenter
    # attains the box's distance
    rng = np.random.default_rng(700 + n)
    frame = frame_of_size(n)
    for _ in range(5):
        m = random_mass_function(frame, rng)
        for (p, kind), cell in oracle.CELLS.items():
            for x in frame.elements:
                where = ((p, kind.value), x)
                sol = cell.solve(m, x)
                assert isinstance(sol, Solution) and sol.focus == x, where
                assert isinstance(sol, LinfBox) == (p == math.inf), where
                assert isinstance(sol.point, MassFunction), where
                outside = np.delete(sol.point.as_array(), ultrafilter(frame, x))
                assert np.abs(outside).max() <= TOL, where
                distance = sol.distances[p]
                direct = np.linalg.norm(embed(m, kind) - embed(sol.point, kind), ord=p)
                assert abs(distance - direct) <= 1e-12 * max(1.0, distance), where


def test_linf_belief_barycenter_is_the_focused_transform(rng):
    # the Linf belief closed form reads the gamma box's barycenter, the
    # focused transform, and the box's centre maps back to it bit for bit
    for n in range(2, 9):
        frame = frame_of_size(n)
        for _ in range(10):
            m = random_mass_function(frame, rng)
            for x in frame.elements:
                point = CELLS[math.inf, SpaceKind.BELIEF].solve(m, x).point
                assert np.array_equal(point.as_array(), focused_transform(m, x).point.as_array())
                box = partial_linf_belief(m, x)
                centre = gamma_to_mass(box, (box.lower + box.upper) / 2).as_array()
                assert np.array_equal(centre, box.point.as_array())


@pytest.mark.parametrize(
    "optima, oracle_d, closed_d, agree",
    [
        (("x",), (0.1, 0.2), (0.1, 0.2), True),
        (("y",), (0.1, 0.2), (0.1, 0.2), False),  # library optimum not oracle-optimal
        (("x",), (0.1, 0.1 + 1e-10), (0.1, 0.3), False),  # oracle tie the closed form misses
        (("x", "y"), (0.1, 0.1 + 1e-10), (0.1, 0.1 + 5e-10), True),
        (("x",), (0.1, 0.1 + 1e-8), (0.1, 0.3), True),  # beyond the match tolerance
    ],
)
def test_globals_agree_compares_tolerant_argmin_sets(optima, oracle_d, closed_d, agree):
    reports = {
        x: SimpleNamespace(oracle_distance=o, closed_form_distance=c)
        for x, o, c in zip("xy", oracle_d, closed_d)
    }
    assert oracle.globals_agree(SimpleNamespace(optima=optima), reports) is agree


def support_scan_weights(v, target):
    """The L2 minimizer on the simplex by a LAPACK solve on every support.

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
        dist[sol.min(axis=1) < -1e-12] = math.inf
        i = int(np.argmin(dist))
        if dist[i] < best_dist:
            best, best_dist = w[i], dist[i]
    return best


def l2_reference_documents(frame, rng):
    """Degenerate documents, then random ones: each a MassFunction on ``frame``."""
    n_subsets = frame.n_subsets
    yield MassFunction.vacuous(frame)
    yield MassFunction(frame, np.r_[0.0, np.full(n_subsets - 1, 1 / (n_subsets - 1))])
    yield MassFunction.from_labels(frame, dict.fromkeys(frame.elements, 1 / frame.size))
    for _ in range(3):
        yield MassFunction(frame, {int(rng.integers(1, n_subsets)): 1.0})
    for _ in range(8):  # two-decimal masses on 1-3 focal sets
        count = int(rng.integers(1, min(3, n_subsets - 1) + 1))
        masks = rng.choice(np.arange(1, n_subsets), size=count, replace=False)
        cuts = np.sort(rng.choice(np.arange(1, 100), size=count - 1, replace=False))
        cents = np.diff(np.r_[0, cuts, 100])
        yield MassFunction(frame, np.bincount(masks, weights=cents / 100, minlength=n_subsets))
    for full_support in (False, True) * 4:
        yield random_mass_function(frame, rng, full_support=full_support)


@pytest.mark.parametrize("n", range(1, 6))
def test_l2_weights_match_the_support_scan(n):
    # the oracle's L2 weights, from Lemke's method, against the support scan
    # on every kind and focus, with targets off the mass simplex too
    frame = frame_of_size(n)
    rng = np.random.default_rng(400 + n)
    kinds = sorted({kind for p, kind in CELLS if p == 2}, key=lambda kind: kind.value)
    assert len(kinds) == 3
    documents = list(l2_reference_documents(frame, rng))
    for kind in kinds:
        targets = [embed(m, kind) for m in documents]
        targets += list(2 * rng.standard_normal((8, len(targets[0]))))
        problems = [(x, i, t) for x in frame.elements for i, t in enumerate(targets)]
        if n == 5:  # the scan solves 2^16 - 1 systems per problem: one per kind,
            # on one of the 8 random documents or 8 Gaussian targets that end the list
            x, i = frame.elements[rng.integers(n)], int(rng.integers(len(targets) - 16, len(targets)))
            problems = [(x, i, targets[i])]
        for x, i, target in problems:
            _, v = oracle._categorical_coords_matrix(frame, x, kind)
            w = oracle._l2_weights(v, target)
            where = (kind.value, x, i)
            assert np.abs(w - support_scan_weights(v, target)).max() <= 1e-12, where
            assert abs(w.sum() - 1.0) <= 1e-12 and w.min() >= -1e-12, where


@pytest.mark.parametrize("draw", [2, 34])
def test_l2_oracle_past_the_frame_cap(draw):
    # draws 2 and 34 of random_mass_function(Frame(e0..e5), default_rng(6)),
    # counting from 0, at the frame cap: Wolfe's restricted basis entry, the
    # L2 engine before Lemke's method, returned a point off the constraints on
    # draw 2 (foci e3 and e5) and a distance of 1.36109 against 1.36032 on
    # draw 34 (focus e4)
    doc = json.loads((FIXTURES / f"l2_seed6_n6_draw{draw}.json").read_text())
    frame = Frame(tuple(doc["frame"]))
    m = MassFunction.from_labels(frame, doc["masses"])
    for kind in {kind for p, kind in CELLS if p == 2}:
        for x in frame.elements:
            report = brute_force_partial(m, x, 2, kind)
            assert report.max_gap <= 1e-9, (kind.value, x, report.max_gap)
            if kind is SpaceKind.BELIEF:
                expected = focused_transform(m, x).point
                assert masses_close(report.oracle_point, expected, tol=1e-9), x


def _linprog_distance(m, x, p, kind):
    """The same partial problem in inequality form, solved by HiGHS."""
    from scipy.optimize import linprog

    frame = m.frame
    members = ultrafilter(frame, x).tolist()
    v = np.array([embed(MassFunction(frame, {a: 1.0}), kind) for a in members])
    t = embed(m, kind)
    k, d = v.shape
    n_err = d if p == 1 else 1  # one bound per coordinate, or one for all
    spread = np.eye(d) if p == 1 else np.ones((d, 1))
    # -e <= V^T w - t <= e, sum(w) = 1, over z = (w, e) >= 0; minimize sum(e)
    a_ub = np.block([[v.T, -spread], [-v.T, -spread]])
    b_ub = np.r_[t, -t]
    a_eq = np.r_[np.ones(k), np.zeros(n_err)][None, :]
    c = np.r_[np.zeros(k), np.ones(n_err)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("size, seed", [(3, 7), (4, 8), (5, 9), (6, 10)])
def test_lp_optimum_matches_scipy_highs(size, seed):
    pytest.importorskip("scipy.optimize")
    frame = frame_of_size(size)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        m = random_mass_function(frame, rng)
        for p in (1, math.inf):
            for kind in (SpaceKind.MASS_N2, SpaceKind.BELIEF):
                for label in frame.elements:
                    ours = brute_force_partial(m, label, p, kind).oracle_distance
                    assert ours == pytest.approx(_linprog_distance(m, label, p, kind), abs=1e-9)


@pytest.mark.parametrize("size, seed", [(7, 11), (8, 12)])
def test_lp_engine_past_the_frame_cap_matches_scipy_highs(size, seed):
    # the simplex starts at the full-frame vertex, so past MAX_ORACLE_FRAME
    # every L1 and Linf program still ends well within LP_MAX_PIVOTS; from an
    # all-artificial basis, Linf belief hit the cap at n = 8
    pytest.importorskip("scipy.optimize")
    frame = frame_of_size(size)
    m = random_mass_function(frame, np.random.default_rng(seed))
    for p in (1, math.inf):
        for kind in (SpaceKind.MASS_N2, SpaceKind.BELIEF):
            target = embed(m, kind)
            for x in frame.elements:
                _, v = oracle._categorical_coords_matrix(frame, x, kind)
                w = oracle._lp_weights(v, target, p)
                ours = oracle._lp_norm((w[:, None] * v).sum(axis=0) - target, p)
                where = (p, kind.value, x)
                assert abs(w.sum() - 1.0) <= 1e-12 and w.min() >= -1e-12, where
                assert ours == pytest.approx(_linprog_distance(m, x, p, kind), abs=1e-9), where


@pytest.mark.parametrize("draw", [2, 34])
def test_verify_lp_pivots_at_the_frame_cap(draw, monkeypatch, capsys):
    # verify passes on an n = 6 document; its L1 and Linf programs, every focus
    # of every cell, take 430 and 446 pivots from the full-frame vertex, 2,942
    # and 3,028 from an all-artificial basis
    pivots, lp_pivots = [0], [0]
    pivot, lp_weights = oracle._pivot, oracle._lp_weights

    def counting_pivot(*args):
        pivots[0] += 1
        pivot(*args)

    def counting_lp_weights(*args):
        before = pivots[0]
        weights = lp_weights(*args)
        lp_pivots[0] += pivots[0] - before
        return weights

    monkeypatch.setattr(oracle, "_pivot", counting_pivot)
    monkeypatch.setattr(oracle, "_lp_weights", counting_lp_weights)
    assert cli.main(["verify", str(FIXTURES / f"l2_seed6_n6_draw{draw}.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] is True
    assert len(doc["reports"]) == 42
    assert max(r["max_gap"] for r in doc["reports"]) <= 1e-9
    assert 0 < lp_pivots[0] <= 600


# One child per forced OpenBLAS kernel: `verify` on seeded documents (n = 2..4,
# 1-5 focal sets, masses k / sum(k)), printing one digest of every output
# document and the bits of a few BLAS dot products, which show whether the
# forced kernel changed numpy's BLAS at all.
KERNEL_PROBE = """
import contextlib, hashlib, io, json, sys
import numpy as np
from csbf import cli
draws, path = int(sys.argv[1]), sys.argv[2]
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for _ in range(draws):
    n = int(rng.integers(2, 5))
    size = min(int(rng.integers(1, 6)), 2**n - 1)
    masks = rng.choice(np.arange(1, 2**n), size=size, replace=False).tolist()
    k = rng.integers(1, 10, size=size)
    keys = [",".join("abcd"[i] for i in range(n) if mask >> i & 1) for mask in masks]
    with open(path, "w") as fh:
        json.dump({"frame": list("abcd"[:n]), "masses": dict(zip(keys, (k / k.sum()).tolist()))}, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", path])
    digest.update(out.getvalue().encode())
blas = [float(a @ a).hex() for a in np.random.default_rng(0).random((4, 1001))]
print(json.dumps({"verify": digest.hexdigest(), "blas": blas}))
"""


def test_verify_reports_match_across_blas_kernels(tmp_path):
    """`verify` prints the same bytes under two OpenBLAS kernels.

    The probe's 300 draws cover those whose rows differed between Prescott
    (SSE3) and Haswell (AVX2) while the oracle took BLAS products and LAPACK
    solves: draws 55 and 161 in L1/Linf rows, 62, 157 and 251 in L2 rows.
    The same dot products differing in their last bits show that the kernel
    switch took effect.
    """
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")

    def probe(kernel):
        proc = run_python("-c", KERNEL_PROBE, "300", str(tmp_path / f"{kernel}.json"),
                          OPENBLAS_CORETYPE=kernel)
        if proc.returncode != 0:
            bare = run_python("-c", "import numpy; numpy.ones((2, 2)) @ numpy.ones(2)",
                              OPENBLAS_CORETYPE=kernel)
            if bare.returncode != 0:
                pytest.skip(f"numpy does not start under OPENBLAS_CORETYPE={kernel}")
            raise AssertionError(proc.stderr.decode())
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(2) as pool:
        old, new = pool.map(probe, ["Prescott", "Haswell"])
    if old["blas"] == new["blas"]:
        pytest.skip("the forced kernels did not change numpy's BLAS")
    assert old["verify"] == new["verify"]


#: numpy attributes that reach BLAS or LAPACK.
BLAS_ATTRIBUTES = {"linalg", "dot", "matmul", "inner", "vdot", "tensordot", "einsum"}


def test_csbf_calls_no_blas():
    # every product and solve in csbf is a ufunc, whose rounding no BLAS
    # kernel choice (OpenBLAS's per-CPU kernels, Accelerate) can move
    modules = sorted(Path(csbf.__file__).parent.rglob("*.py"))
    assert len(modules) >= 6
    hits = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            if matmul or isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []
