import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from csbf import (
    Frame,
    GammaBox,
    MassFunction,
    Solution,
    SpaceKind,
    belief_from_mass,
    contour,
    focused_transform,
    gamma_to_mass,
    global_l1_belief,
    global_l2_belief,
    global_linf_belief,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_belief,
    partial_linf_mass,
)
from csbf import consistent_mass
from csbf.consistent_belief import CELLS
from csbf.consistent_mass import box_corners
from csbf.core import TOL

from conftest import frame_of_size, masses_close
from paper_maths import (
    embed,
    find_global_l1_counterexample,
    random_mass_function,
    verify_orthogonality,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def assert_masses(frame, result, expected, tol=1e-12):
    keys = set(expected) | {frame.format_subset(mask) for mask in result.masses}
    for key in keys:
        assert result.as_array()[frame.parse_subset(key)] == pytest.approx(
            expected.get(key, 0.0), abs=tol
        ), key


class TestFocusedTransform:
    def test_ternary_tables(self, ternary, ternary_frame):
        ft = focused_transform(ternary, "x")
        assert_masses(ternary_frame, ft.point, {"x": 0.2, "x,y": 0.5, "x,z": 0.0, "x,y,z": 0.3})
        ft = focused_transform(ternary, "y")
        assert_masses(ternary_frame, ft.point, {"y": 0.1, "x,y": 0.6, "y,z": 0.3, "x,y,z": 0.0})

    def test_focal_elements_absorb_the_focus(self):
        # four-element case: {y}, {y,z}, {x,z,w} keep their masses, unioned with x
        frame = Frame(("x", "y", "z", "w"))
        m = MassFunction.from_labels(frame, {"y": 0.5, "y,z": 0.3, "x,z,w": 0.2})
        ft = focused_transform(m, "x")
        assert_masses(frame, ft.point, {"x,y": 0.5, "x,y,z": 0.3, "x,z,w": 0.2})

    def test_mass_conserved_exactly(self, rng):
        frame = frame_of_size(4)
        for _ in range(100):
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                ft = focused_transform(m, label)
                assert sum(ft.point.masses.values()) == pytest.approx(1.0, abs=1e-15)
                assert ft.point.admissible


class TestOrthogonality:
    def test_holds_for_every_focus(self, ternary):
        for label in ternary.frame.elements:
            assert verify_orthogonality(ternary, focused_transform(ternary, label))

    def test_perturbation_breaks_it(self, ternary):
        frame = ternary.frame
        ft = focused_transform(ternary, "x")
        masses = dict(ft.point.masses)
        masses[frame.subset(("x", "y"))] += 0.01
        masses[frame.full_mask] -= 0.01
        perturbed = Solution("x", MassFunction(frame, masses), ft.distances)
        assert not verify_orthogonality(ternary, perturbed)

    def test_vacuous_trivially_orthogonal(self):
        frame = frame_of_size(3)
        m = MassFunction.vacuous(frame)
        assert verify_orthogonality(m, focused_transform(m, "x"))


class TestGlobalL1Belief:
    def test_ternary_criterion(self, ternary):
        result = global_l1_belief(ternary)
        assert result.optima == ("y",)
        assert result.criterion_values["x"] == pytest.approx(0.5, abs=1e-12)
        assert result.criterion_values["y"] == pytest.approx(0.4, abs=1e-12)
        assert result.criterion_values["z"] == pytest.approx(1.0, abs=1e-12)

    def test_binary_frame_picks_max_plausibility(self, rng):
        frame = Frame(("x", "y"))
        for _ in range(100):
            m = random_mass_function(frame, rng)
            pl = contour(m)
            best = max(pl.values())
            expected = {lbl for lbl in frame.elements if pl[lbl] >= best - 1e-9}
            assert set(global_l1_belief(m).optima) == expected

    def test_counterexample_search_finds_one(self):
        frame = frame_of_size(3)
        m, draws = find_global_l1_counterexample(frame, seed=20240, max_draws=5000)
        assert m is not None
        pl = contour(m)
        best = max(pl.values())
        most_plausible = {lbl for lbl in frame.elements if pl[lbl] >= best - 1e-9}
        assert set(global_l1_belief(m).optima) != most_plausible


class TestGlobalL2Belief:
    def test_ternary_criterion(self, ternary):
        result = global_l2_belief(ternary)
        assert result.optima == ("y",)
        assert result.criterion_values["x"] == pytest.approx(0.17, abs=1e-12)
        assert result.criterion_values["y"] == pytest.approx(0.08, abs=1e-12)
        assert result.criterion_values["z"] == pytest.approx(0.54, abs=1e-12)

    def test_vacuous_ties_at_zero(self):
        frame = frame_of_size(3)
        result = global_l2_belief(MassFunction.vacuous(frame))
        assert result.optima == frame.elements
        assert all(v == 0.0 for v in result.criterion_values.values())

    def test_criterion_is_squared_belief_distance(self, rng):
        frame = frame_of_size(4)
        for _ in range(25):
            m = random_mass_function(frame, rng)
            origin = embed(m, SpaceKind.BELIEF)
            result = global_l2_belief(m)
            for label in frame.elements:
                ft = focused_transform(m, label)
                direct = np.linalg.norm(origin - embed(ft.point, SpaceKind.BELIEF), ord=2)
                assert result.criterion_values[label] == pytest.approx(direct**2, abs=1e-12)
                assert ft.distances[2] == pytest.approx(direct, abs=1e-12)

    def test_can_diverge_from_global_l1(self):
        # documented instance where the L1 and L2 belief picks differ
        frame = frame_of_size(3)
        rng = np.random.default_rng(7)
        found = None
        for _ in range(100):
            m = random_mass_function(frame, rng, full_support=True)
            if set(global_l1_belief(m).optima) != set(global_l2_belief(m).optima):
                found = m
                break
        assert found is not None

    def test_l1_distance_identity(self, rng):
        # direct belief-space L1 distance matches the closed-form criterion
        frame = frame_of_size(4)
        for _ in range(25):
            m = random_mass_function(frame, rng)
            origin = embed(m, SpaceKind.BELIEF)
            for label in frame.elements:
                ft = focused_transform(m, label)
                direct = np.linalg.norm(origin - embed(ft.point, SpaceKind.BELIEF), ord=1)
                assert ft.distances[1] == pytest.approx(direct, abs=1e-12)

    def test_l1_local_optimality_probe(self, ternary, rng):
        # random points of the ultrafilter simplex never beat the closed form
        frame = ternary.frame
        origin = embed(ternary, SpaceKind.BELIEF)
        from csbf import ultrafilter

        for label in frame.elements:
            ft = focused_transform(ternary, label)
            members = ultrafilter(frame, label)
            for _ in range(200):
                weights = rng.dirichlet(np.ones(len(members)))
                candidate = MassFunction(
                    frame, {mask: float(w) for mask, w in zip(members.tolist(), weights)}
                )
                d = np.linalg.norm(origin - embed(candidate, SpaceKind.BELIEF), ord=1)
                assert d >= ft.distances[1] - 1e-12


class TestGammaBox:
    def test_bounds_follow_inside_belief(self, ternary, ternary_frame):
        box = partial_linf_belief(ternary, "x")
        belief = belief_from_mass(ternary)
        radius = belief[ternary_frame.full_mask ^ ternary_frame.singleton("x")]
        assert box.distances[math.inf] == pytest.approx(radius, abs=1e-12)
        assert box.members.tolist() == [1, 3, 5]
        for mask, lower, upper in zip(box.members.tolist(), box.lower, box.upper):
            inside = belief[mask ^ ternary_frame.singleton("x")]
            assert lower == pytest.approx(-radius - inside, abs=1e-12)
            assert upper == pytest.approx(lower + 2 * radius, abs=1e-12)

    def test_midpoint_maps_to_focused_transform(self, rng):
        for i in range(200):
            frame = frame_of_size(2 + i % 3)
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                box = partial_linf_belief(m, label)
                bary = gamma_to_mass(box, (box.lower + box.upper) / 2)
                assert masses_close(bary, focused_transform(m, label).point, tol=1e-12)

    def test_ternary_corners_match_vertex_formulas(self, ternary, ternary_frame):
        # frozen closed-form corner list for the ternary case, in terms of
        # belief values, as [m(x), m(xy), m(xz), m(frame)]
        frame = ternary_frame
        belief = belief_from_mass(ternary)
        bx = belief[frame.singleton("x")]
        bxy = belief[frame.subset(("x", "y"))]
        bxz = belief[frame.subset(("x", "z"))]
        bc = belief[frame.full_mask ^ frame.singleton("x")]
        expected = {
            (bx - bc, bxy - bx, bxz - bx, 1 + bx + bc - bxy - bxz),
            (bx - bc, bxy - bx, bxz - bx + 2 * bc, 1 + bx - bxy - bxz - bc),
            (bx - bc, bxy - bx + 2 * bc, bxz - bx, 1 + bx - bxy - bxz - bc),
            (bx - bc, bxy - bx + 2 * bc, bxz - bx + 2 * bc, 1 + bx - bxy - bxz - 3 * bc),
            (bx + bc, bxy - bx - 2 * bc, bxz - bx - 2 * bc, 1 + bx - bxy - bxz + 3 * bc),
            (bx + bc, bxy - bx - 2 * bc, bxz - bx, 1 + bx - bxy - bxz + bc),
            (bx + bc, bxy - bx, bxz - bx - 2 * bc, 1 + bx - bxy - bxz + bc),
            (bx + bc, bxy - bx, bxz - bx, 1 + bx - bxy - bxz - bc),
        }
        box = partial_linf_belief(ternary, "x")
        order = [
            frame.singleton("x"),
            frame.subset(("x", "y")),
            frame.subset(("x", "z")),
            frame.full_mask,
        ]
        got = set()
        for point in box.corners():
            got.add(tuple(round(point.as_array()[mask], 9) for mask in order))
        assert got == {tuple(round(v, 9) for v in vertex) for vertex in expected}

    def test_corners_are_the_images_of_the_gamma_corners(self, rng):
        # corner i takes upper[j] where bit j of i is set
        for n in (2, 3, 4):
            frame = frame_of_size(n)
            for _ in range(10):
                m = random_mass_function(frame, rng)
                for x in frame.elements:
                    box = partial_linf_belief(m, x)
                    picks = box_corners(box.lower, box.upper)
                    corners = box.corners()
                    assert len(corners) == len(picks) == 1 << len(box.members)
                    for corner, pick in zip(corners, picks):
                        assert masses_close(corner, gamma_to_mass(box, pick), tol=1e-12)

    def test_corner_belief_vectors_attain_the_distance(self, ternary):
        origin = embed(ternary, SpaceKind.BELIEF)
        box = partial_linf_belief(ternary, "x")
        assert len(box.corners()) == 8
        for point in box.corners():
            d = np.linalg.norm(origin - embed(point, SpaceKind.BELIEF), ord=math.inf)
            assert d == pytest.approx(box.distances[math.inf], abs=1e-12)

    def test_zero_width_box_returns_the_input(self):
        frame = frame_of_size(3)
        m = MassFunction.from_labels(frame, {"x": 0.25, "x,z": 0.25, "x,y,z": 0.5})
        box = partial_linf_belief(m, "x")
        assert box.distances[math.inf] == 0.0
        assert masses_close(gamma_to_mass(box, (box.lower + box.upper) / 2), m, tol=1e-15)

    def test_point_outside_box_rejected(self, ternary):
        box = partial_linf_belief(ternary, "x")
        point = (box.lower + box.upper) / 2
        point[0] = box.upper[0] + 0.5
        with pytest.raises(ValueError):
            gamma_to_mass(box, point)

    def test_point_with_wrong_coordinates_rejected(self, ternary):
        box = partial_linf_belief(ternary, "x")
        point = ((box.lower + box.upper) / 2)[1:]
        with pytest.raises(ValueError):
            gamma_to_mass(box, point)

    def test_gamma_to_mass_allows_the_tolerance_and_checks_the_shape(self, rng):
        m = random_mass_function(frame_of_size(4), rng, full_support=True)
        box = partial_linf_belief(m, "y")
        centre = (box.lower + box.upper) / 2
        assert box.distances[math.inf] > 0.1
        for corner in box_corners(box.lower, box.upper):
            mapped = gamma_to_mass(box, corner).as_array()
            assert np.array_equal(gamma_to_mass(box, corner.tolist()).as_array(), mapped)
        for i in range(box.members.size):
            for bound, sign in ((box.upper, 1.0), (box.lower, -1.0)):
                point = centre.copy()
                point[i] = bound[i] + sign * TOL / 2
                gamma_to_mass(box, point)
                for outside in (bound[i] + sign * TOL * 2, math.nan):
                    point[i] = outside
                    with pytest.raises(ValueError, match="outside the solution box"):
                        gamma_to_mass(box, point)
        for misshapen in (np.append(centre, 0.0), centre[None, :]):
            with pytest.raises(ValueError, match="outside the solution box"):
                gamma_to_mass(box, misshapen)

    def test_tolerance_edges_are_inside(self):
        # each edge is the check's own bound, lower - TOL or upper + TOL;
        # the next float beyond it is outside
        m = MassFunction.vacuous(Frame(("x", "y")))
        box = GammaBox("x", m, {math.inf: 0.125}, [1], [0.5], [0.75])
        for edge, away in ((0.5 - TOL, -math.inf), (0.75 + TOL, math.inf)):
            gamma_to_mass(box, np.array([edge]))
            with pytest.raises(ValueError, match="outside the solution box"):
                gamma_to_mass(box, np.array([math.nextafter(edge, away)]))

    def test_single_element_frame_degenerates_cleanly(self):
        frame = Frame(("x",))
        m = MassFunction.vacuous(frame)
        ft = focused_transform(m, "x")
        assert masses_close(ft.point, m) and ft.distances[1] == 0.0
        box = partial_linf_belief(m, "x")
        corners = box_corners(box.lower, box.upper)
        assert corners.shape == (1, 0)
        assert masses_close(gamma_to_mass(box, corners[0]), m)
        assert len(box.corners()) == 1 and masses_close(box.corners()[0], m)
        assert verify_orthogonality(m, ft)


class TestGlobalLinfBelief:
    def test_ternary_optimum(self, ternary):
        result = global_linf_belief(ternary)
        assert result.optima == ("y",)
        distance = partial_linf_belief(ternary, "y").distances[math.inf]
        assert distance == pytest.approx(0.2, abs=1e-12)

    def test_vacuous_ties(self):
        frame = frame_of_size(3)
        assert global_linf_belief(MassFunction.vacuous(frame)).optima == frame.elements

    def test_distance_complements_plausibility(self, rng):
        frame = frame_of_size(4)
        for _ in range(40):
            m = random_mass_function(frame, rng)
            result = global_linf_belief(m)
            pl = contour(m)
            for label in result.optima:
                assert partial_linf_belief(m, label).distances[math.inf] == pytest.approx(
                    1.0 - pl[label], abs=1e-12
                )

    def test_is_the_l1_mass_selector(self):
        assert global_linf_belief is consistent_mass.global_l1_mass

    @pytest.mark.parametrize("n", range(1, 9))
    def test_its_cell_agrees_with_the_l1_mass_cell(self, n):
        # both criteria are b(x^c): the two cells pick the same optima with
        # the same criterion values on every document
        rng = np.random.default_rng(3900 + n)
        frame = frame_of_size(n)
        linf_belief, l1_mass = CELLS[math.inf, SpaceKind.BELIEF], CELLS[1, SpaceKind.MASS_N2]
        for _ in range(20):
            m = random_mass_function(frame, rng)
            assert linf_belief.select(m) == l1_mass.select(m)


class TestCounterexampleFixture:
    def test_committed_witness_still_works(self):
        with open(os.path.join(FIXTURES, "l1_belief_counterexample.json")) as fh:
            doc = json.load(fh)
        frame = Frame(tuple(doc["frame"]))
        m = MassFunction.from_labels(frame, doc["masses"])
        pl = contour(m)
        best = max(pl.values())
        most_plausible = {lbl for lbl in frame.elements if pl[lbl] >= best - 1e-9}
        optima = set(global_l1_belief(m).optima)
        assert optima == set(doc["global_l1_belief_optima"])
        assert most_plausible == set(doc["max_plausibility_elements"])
        assert optima != most_plausible


def peak_vectors(solve, m) -> float:
    """Peak traced bytes of one ``solve(m)``, after a warm-up call, in vectors of 2^n floats."""
    solve(m)
    tracemalloc.start()
    try:
        solve(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * m.frame.n_subsets)


def sparse_n16() -> MassFunction:
    """64 focal sets on 16 elements, the document of the memory checks."""
    frame = Frame(tuple(f"e{i}" for i in range(16)))
    rng = np.random.default_rng(16)
    masks = rng.choice(np.arange(1, frame.n_subsets), size=64, replace=False)
    weights = rng.dirichlet(np.ones(len(masks)))
    return MassFunction(frame, np.bincount(masks, weights=weights, minlength=frame.n_subsets))


def test_belief_criteria_hold_the_belief_vector_once():
    # numpy reports its buffers to tracemalloc, so the peak counts the arrays
    # held at once: b = zeta(m), squared in place, and the outside_sums fold
    # (3/4 of a vector); focused_transform holds b on the subsets of x^c alone
    # (half a vector) and frees it before building its point
    m = sparse_n16()
    assert peak_vectors(global_l1_belief, m) <= 2.0
    assert peak_vectors(global_l2_belief, m) <= 2.0
    assert peak_vectors(lambda m: focused_transform(m, "e5"), m) <= 2.5


def test_mass_partials_free_their_half_before_the_point():
    # each mass partial folds the half of m without its focus, and its
    # folded copies are gone before it builds its point; the Linf box also
    # holds its members and bounds.  Each bound is the peak from when every
    # partial folded all of m (2.38, 3.75, 2.75, 4.50) plus 0.05 vector: a
    # half vector still held while the point is built breaks it
    m = sparse_n16()
    assert peak_vectors(lambda m: partial_l1_mass(m, "e5"), m) <= 2.43
    assert peak_vectors(lambda m: partial_l2_mass(m, "e5", SpaceKind.MASS_N1), m) <= 3.80
    assert peak_vectors(lambda m: partial_l2_mass(m, "e5", SpaceKind.MASS_N2), m) <= 2.80
    assert peak_vectors(lambda m: partial_linf_mass(m, "e5"), m) <= 4.55
