import math

import numpy as np
import pytest

from csbf import (
    ApproxBox,
    Frame,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    contour,
    core_of,
    global_l1_mass,
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
)
from csbf import consistent_mass
from csbf.consistent_mass import box_corners
from csbf.core import fold, outside_sums

from conftest import frame_of_size, masses_close
from paper_maths import embed, in_mass_box, random_mass_function


def masses_by_label(frame, result):
    return {frame.format_subset(mask): v for mask, v in result.masses.items()}


def assert_masses(frame, result, expected, tol=1e-12):
    keys = set(expected) | set(masses_by_label(frame, result))
    for key in keys:
        assert result.as_array()[frame.parse_subset(key)] == pytest.approx(
            expected.get(key, 0.0), abs=tol
        ), key


class TestPartialL1:
    def test_ternary_tables(self, ternary, ternary_frame):
        pa = partial_l1_mass(ternary, "x")
        assert_masses(ternary_frame, pa.point, {"x": 0.2, "x,y": 0.4, "x,z": 0.0, "x,y,z": 0.4})
        assert pa.distances[1] == pytest.approx(0.4, abs=1e-12)
        pa = partial_l1_mass(ternary, "z")
        assert_masses(ternary_frame, pa.point, {"z": 0.0, "x,z": 0.0, "y,z": 0.3, "x,y,z": 0.7})
        assert pa.distances[1] == pytest.approx(0.7, abs=1e-12)

    def test_fixed_point_when_already_consistent(self):
        frame = frame_of_size(3)
        m = MassFunction.from_labels(frame, {"x": 0.4, "x,y": 0.6})
        pa = partial_l1_mass(m, "x")
        assert pa.distances[1] == 0.0
        assert masses_close(pa.point, m)

    def test_result_contour_reaches_one_at_focus(self, ternary):
        for label in ternary.frame.elements:
            pa = partial_l1_mass(ternary, label)
            assert contour(pa.point)[label] == pytest.approx(1.0, abs=1e-12)
            assert core_of(pa.point) != 0


class TestGlobalL1:
    def test_ternary_optimum(self, ternary):
        result = global_l1_mass(ternary)
        assert result.optima == ("y",)
        assert partial_l1_mass(ternary, "y").distances[1] == pytest.approx(0.2, abs=1e-12)

    def test_vacuous_all_tie_at_zero(self):
        frame = frame_of_size(3)
        result = global_l1_mass(MassFunction.vacuous(frame))
        assert result.optima == frame.elements
        assert all(v == 0.0 for v in result.criterion_values.values())

    def test_optimum_beats_every_partial(self, rng):
        frame = frame_of_size(4)
        for _ in range(40):
            m = random_mass_function(frame, rng)
            result = global_l1_mass(m)
            best = partial_l1_mass(m, result.optima[0]).distances[1]
            for label in frame.elements:
                assert best <= partial_l1_mass(m, label).distances[1] + 1e-12

    def test_ties_report_all_optima(self):
        frame = Frame(("x", "y"))
        m = MassFunction.from_labels(frame, {"x": 0.3, "y": 0.3, "x,y": 0.4})
        assert global_l1_mass(m).optima == ("x", "y")


class TestPartialLinf:
    def test_ternary_intervals(self, ternary, ternary_frame):
        box = partial_linf_mass(ternary, "x")
        intervals = {
            ternary_frame.format_subset(mask): (lo, hi)
            for mask, lo, hi in zip(box.members.tolist(), box.lower, box.upper)
        }
        assert intervals["x"] == pytest.approx((-0.1, 0.5), abs=1e-12)
        assert intervals["x,y"] == pytest.approx((0.1, 0.7), abs=1e-12)
        assert intervals["x,z"] == pytest.approx((-0.3, 0.3), abs=1e-12)
        assert box.distances[math.inf] == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_box_when_consistent(self):
        frame = frame_of_size(3)
        m = MassFunction.from_labels(frame, {"x": 0.4, "x,y,z": 0.6})
        box = partial_linf_mass(m, "x")
        assert box.distances[math.inf] == 0.0
        assert box.lower.size == 3
        assert (box.lower == box.upper).all()
        assert masses_close(box.point, m)
        lo, hi, clipped = box.admissible_intervals()
        assert (lo == box.lower).all() and (hi == box.upper).all()
        assert clipped is False

    def test_corner_members_are_the_interval_picks_bit_for_bit(self, rng):
        # corner i takes upper[j] where bit j of i is set; the full frame
        # closes the sum and every mass off the ultrafilter stays 0
        for n in (2, 3, 4):
            frame = frame_of_size(n)
            for _ in range(10):
                m = random_mass_function(frame, rng)
                for x in frame.elements:
                    box = partial_linf_mass(m, x)
                    picks = box_corners(box.lower, box.upper)
                    corners = box.corners()
                    assert len(corners) == len(picks) == 1 << len(box.members)
                    for corner, pick in zip(corners, picks):
                        arr = corner.as_array()
                        assert np.array_equal(arr[box.members], pick)
                        assert arr.sum() == pytest.approx(1.0, abs=1e-12)
                        assert in_mass_box(box, corner, tol=0.0)

    def test_every_corner_attains_exactly_the_box_distance(self, ternary):
        origin = embed(ternary, SpaceKind.MASS_N2)
        box = partial_linf_mass(ternary, "x")
        for corner in box.corners():
            d = np.linalg.norm(origin - embed(corner, SpaceKind.MASS_N2), ord=math.inf)
            assert d == pytest.approx(box.distances[math.inf], abs=1e-12)

    def test_clipped_points_keep_the_distance(self, ternary):
        # renormalizing clipped coordinates through the full frame stays in the box
        box = partial_linf_mass(ternary, "x")
        lo, hi, clipped = box.admissible_intervals()
        assert clipped
        origin = embed(ternary, SpaceKind.MASS_N2)
        frame = ternary.frame
        values = dict(zip(box.members.tolist(), lo.tolist()))
        values[frame.full_mask] = 1.0 - sum(values.values())
        point = PseudoMassFunction(frame, values)
        assert in_mass_box(box, point)
        d = np.linalg.norm(origin - embed(point, SpaceKind.MASS_N2), ord=math.inf)
        assert d == pytest.approx(box.distances[math.inf], abs=1e-12)

    def test_upper_clip_acts_on_rounding_alone(self):
        # a mass sum above 1 within the ingest tolerance puts upper[0] above 1,
        # while the lower clip has nothing to do
        m = MassFunction(Frame(("x", "y")), {1: 0.5 + 5e-10, 2: 0.5})
        box = partial_linf_mass(m, "x")
        lo, hi, clipped = box.admissible_intervals()
        assert box.upper[0] > 1.0
        assert hi[0] == 1.0
        assert (lo == box.lower).all()
        assert clipped

    def test_contains_rejects_mass_off_the_ultrafilter(self, ternary):
        # ternary puts 0.4 on y and y,z, outside the ultrafilter of x, while
        # its masses on x, x,y and x,z lie inside their intervals
        box = partial_linf_mass(ternary, "x")
        assert not in_mass_box(box, ternary)
        assert in_mass_box(box, box.point)
        # another frame's masses are never inside, whatever their vector holds
        m = MassFunction.from_labels(Frame(("x", "y")), {"x": 0.5, "y": 0.5})
        pair = partial_linf_mass(m, "x")
        assert in_mass_box(pair, pair.point)
        for other in (("x", "y", "z"), ("x", "w")):
            stranger = MassFunction.from_labels(Frame(other), {"x": 0.5, other: 0.5})
            assert not in_mass_box(pair, stranger)
        frame = ternary.frame
        y, full = frame.singleton("y"), frame.full_mask
        for stray, inside in ((1e-10, True), (-1e-10, True), (2e-9, False), (-2e-9, False)):
            masses = dict(box.point.masses)
            masses[y], masses[full] = stray, masses[full] - stray
            assert in_mass_box(box, PseudoMassFunction(frame, masses)) is inside, stray

    def test_tolerance_edges_are_inside(self):
        # dyadic bounds and tolerance: every edge sum below is exact
        tol, lower, upper = 2.0**-4, np.array([0.5]), np.array([0.75])
        frame = Frame(("x", "y"))
        box = ApproxBox("x", MassFunction.vacuous(frame), {math.inf: 0.125}, [1], lower, upper)

        def point(inside, stray=0.0):  # mass on x, on y (off the ultrafilter), rest on x,y
            return PseudoMassFunction(frame, {1: inside, 2: stray, 3: 1.0 - inside - stray})

        for edge, away in ((0.5 - tol, -math.inf), (0.75 + tol, math.inf)):
            beyond = math.nextafter(edge, away)
            assert in_mass_box(box, point(edge), tol)
            assert not in_mass_box(box, point(beyond), tol)
        for stray in (tol, -tol):
            assert in_mass_box(box, point(0.625, stray), tol)
            assert not in_mass_box(box, point(0.625, math.nextafter(stray, 2 * stray)), tol)

    def test_interval_width_is_twice_the_distance(self, rng):
        frame = frame_of_size(3)
        for _ in range(50):
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                box = partial_linf_mass(m, label)
                for width in box.upper - box.lower:
                    assert width == pytest.approx(2 * box.distances[math.inf], abs=1e-12)

    def test_barycenter_equals_partial_l1(self, rng):
        frame = frame_of_size(3)
        for _ in range(50):
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                box = partial_linf_mass(m, label)
                l1 = partial_l1_mass(m, label).point
                assert np.array_equal(box.point.as_array(), l1.as_array())
                assert masses_close(box.point, l1, tol=1e-12)


class TestGlobalLinf:
    def test_ternary_criterion_and_optimum(self, ternary):
        result = global_linf_mass(ternary)
        assert result.optima == ("y",)
        assert result.criterion_values["x"] == pytest.approx(0.3, abs=1e-12)
        assert result.criterion_values["y"] == pytest.approx(0.2, abs=1e-12)
        assert result.criterion_values["z"] == pytest.approx(0.4, abs=1e-12)

    def test_vacuous_ties_at_zero(self):
        frame = frame_of_size(3)
        result = global_linf_mass(MassFunction.vacuous(frame))
        assert result.optima == frame.elements

    def test_matches_exhaustive_scan(self, rng):
        frame = frame_of_size(4)
        for _ in range(40):
            m = random_mass_function(frame, rng)
            result = global_linf_mass(m)
            scan = {
                label: max(
                    (v for mask, v in m.masses.items() if not mask & frame.singleton(label)),
                    default=0.0,
                )
                for label in frame.elements
            }
            best = min(scan.values())
            assert set(result.optima) == {lbl for lbl, v in scan.items() if v <= best + 1e-9}


class TestPartialL2:
    def test_ternary_tables_full_embedding(self, ternary, ternary_frame):
        pa = partial_l2_mass(ternary, "x", SpaceKind.MASS_N1)
        assert_masses(
            ternary_frame, pa.point, {"x": 0.3, "x,y": 0.5, "x,z": 0.1, "x,y,z": 0.1}
        )
        pa = partial_l2_mass(ternary, "z", SpaceKind.MASS_N1)
        assert_masses(
            ternary_frame, pa.point, {"z": 0.175, "x,z": 0.175, "y,z": 0.475, "x,y,z": 0.175}
        )

    def test_reduced_embedding_equals_partial_l1(self, ternary):
        pa = partial_l2_mass(ternary, "x", SpaceKind.MASS_N2)
        assert masses_close(pa.point, partial_l1_mass(ternary, "x").point, tol=0.0)

    def test_reduced_equals_l1_on_random_inputs(self, rng):
        for i in range(200):
            frame = frame_of_size(2 + i % 3)
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                l2 = partial_l2_mass(m, label, SpaceKind.MASS_N2)
                assert masses_close(l2.point, partial_l1_mass(m, label).point, tol=0.0)

    def test_always_admissible(self, rng):
        frame = frame_of_size(4)
        for _ in range(30):
            m = random_mass_function(frame, rng)
            for label in frame.elements:
                assert partial_l2_mass(m, label, SpaceKind.MASS_N1).point.admissible

    def test_belief_space_rejected(self, ternary):
        for kind in (SpaceKind.BELIEF, "belief"):
            with pytest.raises(ValueError, match="got belief"):
                partial_l2_mass(ternary, "x", kind)
            with pytest.raises(ValueError, match="got belief"):
                global_l2_mass(ternary, kind)

    def test_kind_given_by_its_value_is_that_embedding(self, rng):
        # SpaceKind is a str enum: "mass-n1" must solve as SpaceKind.MASS_N1
        m = random_mass_function(frame_of_size(4), rng)
        for kind in (SpaceKind.MASS_N1, SpaceKind.MASS_N2):
            assert global_l2_mass(m, kind.value) == global_l2_mass(m, kind)
            for label in m.frame.elements:
                assert partial_l2_mass(m, label, kind.value) == partial_l2_mass(m, label, kind)
        n1, n2 = (global_l2_mass(m, kind).criterion_values for kind in ("mass-n1", "mass-n2"))
        assert n1 != n2

    @pytest.mark.parametrize("kind, n_partial, n_select", [("mass-n1", 2, 2), ("mass-n2", 2, 1)])
    def test_each_outside_sum_is_folded_once(self, rng, monkeypatch, kind, n_partial, n_select):
        # a selector folds every focus at once, m only for mass-n1 and m**2
        # always; a partial folds its own half of m and of m**2 once each,
        # never every focus, and both give the same distance bits
        sums, folds = [], []

        def counted_sums(*args):
            sums.append(np.size(args[0]))
            return outside_sums(*args)

        def counted_fold(*args):
            folds.append(np.size(args[0]))
            return fold(*args)

        monkeypatch.setattr(consistent_mass, "outside_sums", counted_sums)
        monkeypatch.setattr(consistent_mass, "fold", counted_fold)
        m = random_mass_function(frame_of_size(5), rng)
        criterion = global_l2_mass(m, kind).criterion_values
        assert (sums, folds) == ([32] * n_select, [])
        for x in m.frame.elements:
            sums.clear()
            folds.clear()
            assert partial_l2_mass(m, x, kind).distances[2] == math.sqrt(criterion[x])
            assert (sums, folds) == ([], [16] * n_partial)


class TestDegenerateFrames:
    def test_single_element_frame(self):
        frame = Frame(("x",))
        m = MassFunction.vacuous(frame)
        pa = partial_l1_mass(m, "x")
        assert pa.distances[1] == 0.0 and masses_close(pa.point, m)
        box = partial_linf_mass(m, "x")
        assert box.distances[math.inf] == 0.0 and box.lower.size == 0
        assert masses_close(box.point, m)
        for kind in (SpaceKind.MASS_N1, SpaceKind.MASS_N2):
            assert masses_close(partial_l2_mass(m, "x", kind).point, m)
        assert global_l1_mass(m).optima == ("x",)

    def test_ten_element_frame_stays_fast_and_exact(self, rng):
        frame = Frame(tuple(f"e{i}" for i in range(10)))
        m = random_mass_function(frame, rng)
        pa = partial_l1_mass(m, "e3")
        assert core_of(pa.point) != 0
        assert sum(pa.point.masses.values()) == pytest.approx(1.0, abs=1e-12)
        assert global_linf_mass(m).optima


class TestGlobalL2:
    def test_ternary_optimum_both_embeddings(self, ternary):
        for kind in (SpaceKind.MASS_N1, SpaceKind.MASS_N2):
            assert global_l2_mass(ternary, kind).optima == ("y",)

    def test_vacuous_ties(self):
        frame = frame_of_size(3)
        for kind in (SpaceKind.MASS_N1, SpaceKind.MASS_N2):
            assert global_l2_mass(MassFunction.vacuous(frame), kind).optima == frame.elements

    def test_criterion_equals_direct_squared_distance(self, rng):
        frame = frame_of_size(4)
        for _ in range(25):
            m = random_mass_function(frame, rng)
            for kind in (SpaceKind.MASS_N1, SpaceKind.MASS_N2):
                origin = embed(m, kind)
                result = global_l2_mass(m, kind)
                for label in frame.elements:
                    pa = partial_l2_mass(m, label, kind)
                    direct = np.linalg.norm(origin - embed(pa.point, kind), ord=2)
                    assert result.criterion_values[label] == pytest.approx(
                        direct**2, abs=1e-12
                    )
                    assert pa.distances[2] == pytest.approx(direct, abs=1e-12)
