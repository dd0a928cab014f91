import importlib.util
import json
import math
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from csbf import (
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
from csbf import cli, consistent_belief, consistent_mass, oracle
from csbf.consistent_mass import LinfBox
from csbf.core import TOL
from csbf.oracle import CELLS, globals_agree, library_global

from conftest import frame_of_size, masses_close, run_python
from paper_maths import embed, in_mass_box, random_mass_function
from test_golden import MODES, TERNARY


def oracle_agrees(m, p, kind):
    """Brute-force every partial distance and compare argmin sets with the library's."""
    reports = {x: brute_force_partial(m, x, p, kind) for x in m.frame.elements}
    return globals_agree(library_global(m, p, kind), reports)


class TestBruteForcePartial:
    def test_running_example_l1_mass(self, ternary):
        report = brute_force_partial(ternary, "x", 1, SpaceKind.MASS_N2)
        assert report.oracle_distance == pytest.approx(0.4, abs=TOL)
        assert report.converged

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

    def test_closed_form_never_beaten(self, rng):
        frame = frame_of_size(3)
        for _ in range(3):
            m = random_mass_function(frame, rng)
            for p, kind in CELLS:
                for label in frame.elements:
                    report = brute_force_partial(m, label, p, kind)
                    assert abs(report.oracle_distance - report.closed_form_distance) <= 1e-9

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
        frame = frame_of_size(5)
        m = MassFunction.vacuous(frame)
        with pytest.raises(FrameTooLargeError):
            brute_force_partial(m, "x", 1, SpaceKind.MASS_N2)

    def test_space_given_by_its_value_is_that_space(self, ternary):
        for p, kind in CELLS:
            for x in ternary.frame.elements:
                by_value = brute_force_partial(ternary, x, p, kind.value)
                assert by_value == brute_force_partial(ternary, x, p, kind), (p, kind.value, x)
                assert by_value.converged and by_value.space is kind

    def test_lp_pivot_cap_raises(self, ternary, monkeypatch):
        monkeypatch.setattr(oracle, "LP_MAX_PIVOTS", 1)
        with pytest.raises(RuntimeError, match="1 pivots"):
            brute_force_partial(ternary, "x", 1, SpaceKind.MASS_N2)

    @pytest.mark.parametrize(
        "c, a, b, expected",
        [
            # max x1 + x2 s.t. x1 + 2 x2 <= 4 and 3 x1 + x2 <= 6, with slacks;
            # the second row is negated, so its right-hand side starts negative.
            ([-1, -1, 0, 0], [[1, 2, 1, 0], [-3, -1, 0, -1]], [4, -6], [1.6, 1.2, 0, 0]),
            # Phase 1 leaves x1 basic; phase 2 must price it out to reach x2.
            ([2, 1], [[1, 1]], [1], [0, 1]),
            # One feasible point; phase 1 ends with an artificial basic at zero
            # in a row that must be pivoted onto an original column.
            ([2, 2, 2], [[1, -2, 0], [-2, 0, -2], [2, 2, -2]], [-2, -4, 8], [2, 2, 0]),
        ],
    )
    def test_lp_min_on_small_programs(self, c, a, b, expected):
        z = oracle._lp_min(*(np.array(u, dtype=float) for u in (c, a, b)))
        assert z == pytest.approx(expected, abs=1e-12)

    def test_l2_weights_stay_on_the_simplex(self):
        # Unit masses on {x} and on the frame {x, y}, in mass-n2 coordinates:
        # the target (2, -1) projects onto their affine hull at w = (2, -1),
        # so the nearest point of the simplex is the vertex {x}.
        v = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert oracle._l2_weights(v, np.array([2.0, -1.0])) == pytest.approx([1.0, 0.0])

    def test_four_element_frame_with_coarse_grid(self, rng):
        frame = frame_of_size(4)
        m = random_mass_function(frame, rng)
        for p, kind in CELLS:
            for label in frame.elements:
                report = brute_force_partial(m, label, p, kind)
                assert report.converged, (p, kind, label, report.max_gap)


class TestExhaustiveGlobalCheck:
    def test_running_example_every_pair(self, ternary):
        for p, kind in CELLS:
            assert oracle_agrees(ternary, p, kind)
            assert library_global(ternary, p, kind).optima == ("y",)

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

    def test_random_draws_agree(self, rng):
        frame = frame_of_size(3)
        for _ in range(3):
            m = random_mass_function(frame, rng)
            for p, kind in CELLS:
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


def test_table_calls_the_library_through_module_attributes(ternary, monkeypatch, capsys):
    # wrapping a function at its home module's attribute must reach the calls
    # the table makes, from the oracle and from the CLI alike
    homes = {
        consistent_mass: ("partial_l1_mass", "partial_l2_mass", "partial_linf_mass",
                          "global_l1_mass", "global_l2_mass", "global_linf_mass"),
        consistent_belief: ("focused_transform", "partial_linf_belief",
                            "global_l1_belief", "global_l2_belief", "global_linf_belief"),
    }
    names = tuple(name for home in homes.values() for name in home)
    assert len(names) == 11
    calls = dict.fromkeys((*names, "gamma_to_mass"), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module, home in homes.items():
        for name in home:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(
        consistent_belief, "gamma_to_mass", counted("gamma_to_mass", gamma_to_mass)
    )
    for (p, kind), cell in CELLS.items():
        cell.solve(ternary, "x")
        library_global(ternary, p, kind)
    # the Linf belief box carries its barycenter
    assert calls.pop("gamma_to_mass") == 0
    assert all(calls.values()), calls

    calls.update(dict.fromkeys((*names, "gamma_to_mass"), 0))
    for mode in MODES.values():
        for where in (["--focus", "x"], ["--global"]):
            assert cli.main(["approximate", str(TERNARY), *mode, *where]) == 0
    capsys.readouterr()
    # perfbench's global-sparse run deletes consistent_belief.gamma_to_mass,
    # so approximate must not go through that attribute
    assert calls.pop("gamma_to_mass") == 0
    assert all(calls.values()), calls


def perfbench_spans(monkeypatch):
    """perfbench/spans.py, loaded as a module of its own."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclasses
    spec.loader.exec_module(spans)
    return spans


def test_every_perfbench_hook_site_resolves(monkeypatch):
    spans = perfbench_spans(monkeypatch)
    sites = [site for sites in spans.HOOKS.values() for site in sites]
    assert len(sites) > 20
    missing = [f"{mod}.{attr}" for mod, attr in sites if not hasattr(import_module(mod), attr)]
    assert missing == []


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


@pytest.mark.parametrize("size, seed", [(3, 7), (4, 8)])
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


def test_lp_min_matches_scipy_highs_on_random_programs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(2014)
    solved = 0
    while solved < 300:
        # Small integer programs with a known feasible point: many are degenerate.
        m, n = rng.integers(1, 4), rng.integers(2, 6)
        a = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = a @ rng.integers(0, 3, size=n)
        c = rng.integers(-1, 3, size=n).astype(float)
        ref = linprog(c, A_eq=a, b_eq=b, method="highs")
        if ref.status != 0:  # unbounded
            continue
        z = oracle._lp_min(c, a, b)
        assert z.min() >= -1e-12 and a @ z == pytest.approx(b, abs=1e-9)
        assert c @ z == pytest.approx(ref.fun, abs=1e-9)
        solved += 1


# One child per forced OpenBLAS kernel: `verify` on seeded documents (n = 2..4,
# 1-5 focal sets, masses k / sum(k)), printing one digest of the L1 and Linf
# rows (reports and global checks) and one of the L2 rows.
KERNEL_PROBE = """
import contextlib, hashlib, io, json, sys
import numpy as np
from csbf import cli
draws, path = int(sys.argv[1]), sys.argv[2]
rng = np.random.default_rng(5)
digests = {"lp": hashlib.sha256(), "l2": hashlib.sha256()}
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
    doc = json.loads(out.getvalue())
    for row in doc["reports"] + doc["global_checks"]:
        digests["l2" if row["norm"] == "l2" else "lp"].update(json.dumps(row).encode())
print(json.dumps({name: digest.hexdigest() for name, digest in digests.items()}))
"""


def test_l1_and_linf_verify_reports_match_across_blas_kernels(tmp_path):
    """L1 and Linf `verify` rows are the same bytes under two OpenBLAS kernels.

    At 165 draws the probe covers the two draws whose L1/Linf rows differed
    between Prescott (SSE3) and Haswell (AVX2) while the simplex and the
    recomputed distance took BLAS products.  L2 rows still differ on some
    draws (``np.linalg.solve``), which shows the kernel switch took effect.
    """
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")

    def probe(kernel):
        proc = run_python("-c", KERNEL_PROBE, "165", str(tmp_path / f"{kernel}.json"),
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
    if old["l2"] == new["l2"]:
        pytest.skip("L2 rows agree too: the forced kernels did not change numpy's BLAS")
    assert old["lp"] == new["lp"]
