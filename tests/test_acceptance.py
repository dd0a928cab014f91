"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``acceptance NN [...]: PASS/FAIL`` line and then
asserts, so a red criterion reports itself before failing.  The lines are
also echoed in the terminal summary after the run, where capture cannot
swallow them.
"""

import json
import math
import os
import time

import numpy as np

from csbf import (
    Frame,
    MassFunction,
    SpaceKind,
    belief_from_mass,
    brute_force_partial,
    contour,
    core_of,
    focused_transform,
    gamma_to_mass,
    global_l1_belief,
    global_l1_mass,
    global_l2_belief,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_belief,
    partial_linf_mass,
)
from csbf.core import TOL
from csbf.oracle import CELLS, globals_agree, library_global

from conftest import ACCEPTANCE_LINES, TERNARY_MASSES, frame_of_size, masses_close
from paper_maths import (
    find_global_l1_counterexample,
    lemma_alternating_sum,
    random_mass_function,
    verify_orthogonality,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def check(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance {criterion:>2} [{name}]: {status}{suffix}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def ternary_example():
    frame = Frame(("x", "y", "z"))
    return frame, MassFunction.from_labels(frame, TERNARY_MASSES)


def masses_match(frame, result, expected, tol=1e-12):
    keys = set(expected) | {frame.format_subset(mask) for mask in result.masses}
    return all(
        abs(result.as_array()[frame.parse_subset(key)] - expected.get(key, 0.0)) <= tol
        for key in keys
    )


def random_instances(count, sizes, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        frame = frame_of_size(sizes[i % len(sizes)])
        yield frame, random_mass_function(frame, rng)


def test_criterion_1_golden_l1_mass_tables():
    frame, m = ternary_example()
    expected = {
        "x": {"x": 0.2, "x,y": 0.4, "x,z": 0.0, "x,y,z": 0.4},
        "y": {"y": 0.1, "x,y": 0.4, "y,z": 0.3, "x,y,z": 0.2},
        "z": {"z": 0.0, "x,z": 0.0, "y,z": 0.3, "x,y,z": 0.7},
    }

    def workload():
        partials = {x: partial_l1_mass(m, x) for x in frame.elements}
        return partials, global_l1_mass(m)

    workload()  # warm up
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        partials, result = workload()
        best = min(best, time.perf_counter() - t0)

    tables_ok = all(masses_match(frame, partials[x].point, expected[x]) for x in expected)
    check(
        1,
        "golden L1 mass tables",
        tables_ok and result.optima == ("y",) and best < 0.010,
        f"optima={result.optima}, runtime={best * 1e3:.2f} ms",
    )


def test_criterion_2_linf_mass_intervals_and_global():
    frame, m = ternary_example()
    box = partial_linf_mass(m, "x")
    expected = {"x": (-0.1, 0.5), "x,y": (0.1, 0.7), "x,z": (-0.3, 0.3)}
    bounds = dict(zip(box.members.tolist(), zip(box.lower.tolist(), box.upper.tolist())))
    intervals_ok = all(
        abs(bounds[frame.parse_subset(k)][0] - lo) <= 1e-12
        and abs(bounds[frame.parse_subset(k)][1] - hi) <= 1e-12
        for k, (lo, hi) in expected.items()
    )
    result = global_linf_mass(m)
    crit = result.criterion_values
    crit_ok = (
        abs(crit["x"] - 0.3) <= 1e-12
        and abs(crit["y"] - 0.2) <= 1e-12
        and abs(crit["z"] - 0.4) <= 1e-12
    )
    check(
        2,
        "Linf mass box and global",
        intervals_ok and crit_ok and result.optima == ("y",),
        f"criterion={dict(crit)}",
    )


def test_criterion_3_l2_mass_tables_and_reduced_equivalence():
    frame, m = ternary_example()
    expected = {
        "x": {"x": 0.3, "x,y": 0.5, "x,z": 0.1, "x,y,z": 0.1},
        "y": {"y": 0.15, "x,y": 0.45, "y,z": 0.35, "x,y,z": 0.05},
        "z": {"z": 0.175, "x,z": 0.175, "y,z": 0.475, "x,y,z": 0.175},
    }
    tables_ok = all(
        masses_match(frame, partial_l2_mass(m, x, SpaceKind.MASS_N1).point, expected[x])
        for x in expected
    )
    reduced_ok = True
    for inst_frame, inst in random_instances(1000, (2, 3, 4), seed=101):
        for x in inst_frame.elements:
            l2 = partial_l2_mass(inst, x, SpaceKind.MASS_N2).point
            if not masses_close(l2, partial_l1_mass(inst, x).point, tol=0.0):
                reduced_ok = False
    check(3, "L2 mass tables, reduced = L1", tables_ok and reduced_ok)


def test_criterion_4_focused_transforms_and_belief_globals():
    frame, m = ternary_example()
    expected = {
        "x": {"x": 0.2, "x,y": 0.5, "x,z": 0.0, "x,y,z": 0.3},
        "y": {"y": 0.1, "x,y": 0.6, "y,z": 0.3, "x,y,z": 0.0},
        "z": {"z": 0.0, "x,z": 0.2, "y,z": 0.4, "x,y,z": 0.4},
    }
    tables_ok = all(
        masses_match(frame, focused_transform(m, x).point, expected[x]) for x in expected
    )
    l1 = global_l1_belief(m)
    l2 = global_l2_belief(m)
    l1_ok = (
        abs(l1.criterion_values["x"] - 0.5) <= 1e-12
        and abs(l1.criterion_values["y"] - 0.4) <= 1e-12
        and abs(l1.criterion_values["z"] - 1.0) <= 1e-12
        and l1.optima == ("y",)
    )
    l2_ok = (
        abs(l2.criterion_values["x"] - 0.17) <= 1e-12
        and abs(l2.criterion_values["y"] - 0.08) <= 1e-12
        and abs(l2.criterion_values["z"] - 0.54) <= 1e-12
        and l2.optima == ("y",)
    )
    check(4, "focused transforms and belief globals", tables_ok and l1_ok and l2_ok)


def test_criterion_5_barycenter_identities():
    worst = 0.0
    for frame, m in random_instances(1000, (2, 3, 4), seed=202):
        for x in frame.elements:
            gamma_box = partial_linf_belief(m, x)
            bary = gamma_to_mass(gamma_box, (gamma_box.lower + gamma_box.upper) / 2)
            ft = focused_transform(m, x).point
            keys = set(bary.masses) | set(ft.masses)
            worst = max(worst, max(abs(bary.as_array()[k] - ft.as_array()[k]) for k in keys))

            mass_box = partial_linf_mass(m, x)
            mid = mass_box.point
            l1 = partial_l1_mass(m, x).point
            keys = set(mid.masses) | set(l1.masses)
            worst = max(worst, max(abs(mid.as_array()[k] - l1.as_array()[k]) for k in keys))
    check(5, "box midpoints are the L1/focused solutions", worst < 1e-12, f"max dev {worst:.2e}")


def test_criterion_6_orthogonality_and_lemma_indicator():
    orth_ok = True
    for frame, m in random_instances(1000, (2, 3, 4), seed=303):
        for x in frame.elements:
            if not verify_orthogonality(m, focused_transform(m, x), tol=1e-9):
                orth_ok = False
    lemma_ok = True
    for n in (1, 2, 3, 4):
        frame = frame_of_size(n)
        for a in range(1, frame.n_subsets):
            for b in range(1, frame.n_subsets):
                if b == frame.full_mask:
                    expected = 0  # degenerate top row, never part of the system
                else:
                    expected = 1 if a & b == a else 0
                if lemma_alternating_sum(frame, a, b) != expected:
                    lemma_ok = False
    check(6, "orthogonality certificate and subset indicator", orth_ok and lemma_ok)


def test_criterion_7_oracle_equivalence():
    distances_ok = True
    globals_ok = True
    details = []
    elapsed = 0.0
    for size, seed, draws in ((3, 42, 50), (4, 43, 10), (5, 44, 12), (6, 45, 6)):
        frame = frame_of_size(size)
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        worst_gap = 0.0
        for _ in range(draws):
            m = random_mass_function(frame, rng)
            for p, kind in CELLS:
                reports = {x: brute_force_partial(m, x, p, kind) for x in frame.elements}
                for report in reports.values():
                    worst_gap = max(worst_gap, report.max_gap)
                    if report.max_gap > TOL:
                        distances_ok = False
                if not globals_agree(library_global(m, p, kind), reports):
                    globals_ok = False
        size_elapsed = time.perf_counter() - t0
        elapsed += size_elapsed
        details.append(f"n={size}: worst gap {worst_gap:.2e} in {size_elapsed:.1f} s")
    check(
        7,
        "oracle matches every closed form",
        TOL == 1e-9 and distances_ok and globals_ok and elapsed < 60.0,
        f"{'; '.join(details)}; tol {TOL:.0e}",
    )


def test_criterion_8_l1_belief_counterexample():
    frame = frame_of_size(3)
    with open(os.path.join(FIXTURES, "l1_belief_counterexample.json")) as fh:
        fixture = json.load(fh)
    witness = MassFunction.from_labels(frame, fixture["masses"])
    pl = contour(witness)
    best = max(pl.values())
    most_plausible = {lbl for lbl in frame.elements if pl[lbl] >= best - 1e-9}
    fixture_ok = set(global_l1_belief(witness).optima) != most_plausible

    found, draws = find_global_l1_counterexample(frame, seed=20240, max_draws=100_000)
    if found is None:
        check(
            8,
            "global L1 belief vs max plausibility",
            False,
            "no counterexample in 100000 draws; the divergence claim is unconfirmed",
        )
    check(
        8,
        "global L1 belief vs max plausibility",
        fixture_ok and found is not None,
        f"witness found at draw {draws}",
    )


def test_criterion_9_consistency_triple_agreement():
    # Three consistency predicates, and how they relate on every draw:
    #   core     -- the focal elements share an element (core_of != 0);
    #   contour  -- some singleton has plausibility 1;
    #   no pair  -- no complementary pair A, A^c has both beliefs positive.
    # (a) core <=> contour: pl(x) = 1 exactly when x lies in every focal set.
    # (b) a supported pair => empty core: every set with positive belief
    #     contains a focal element and hence the core, and A, A^c share
    #     nothing.
    # (c) on the binary frame the converse holds too: the core is empty only
    #     when both {x} and {y} are focal, so b({x}) > 0 and b({y}) > 0.
    # (d) from three elements on it does not: masses on {x,y}, {x,z}, {y,z}
    #     have an empty core while every singleton belief is 0, so no pair is
    #     supported.  The sweep must meet such a gap draw at sizes 3, 4, 5.
    witness = ""
    gaps = {}
    for size in (2, 3, 4, 5):
        rng = np.random.default_rng(900 + size)
        frame = frame_of_size(size)
        gaps[size] = 0
        for draw in range(1000):
            m = random_mass_function(frame, rng)
            belief = belief_from_mass(m)
            by_core = core_of(m) != 0
            by_contour = max(contour(m).values()) >= 1.0 - 1e-9
            by_complements = not any(
                belief[a] > 1e-9
                and belief[frame.full_mask ^ a] > 1e-9
                for a in range(1, frame.n_subsets)
            )
            gap = not by_core and by_complements
            gaps[size] += gap
            if by_core != by_contour:
                broken = "(a) core vs contour split"
            elif by_core and not by_complements:
                broken = "(b) nonempty core with a supported complementary pair"
            elif size == 2 and gap:
                broken = "(c) binary frame: empty core without a supported pair"
            else:
                continue
            if not witness:
                masses = {frame.format_subset(k): round(v, 6) for k, v in sorted(m.masses.items())}
                witness = f"{broken} at size {size} draw {draw}, masses {masses}"
    missing = [size for size in (3, 4, 5) if gaps[size] == 0]
    if missing and not witness:
        witness = f"(d) no gap draw (empty core, no supported pair) at sizes {missing}"
    detail = witness or "gap draws at sizes 3/4/5: " + "/".join(str(gaps[s]) for s in (3, 4, 5))
    check(9, "consistency predicate triple agreement", not witness, detail)
