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
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
)
from csbf.consistent_mass import box_corners

from conftest import frame_of_size, masses_close
from paper_maths import embed, in_mass_box, random_mass_function


class TestPartialL1:
    def test_result_contour_reaches_one_at_focus(self, ternary):
        for label in ternary.frame.elements:
            pa = partial_l1_mass(ternary, label)
            assert contour(pa.point)[label] == pytest.approx(1.0, abs=1e-12)
            assert core_of(pa.point) != 0


class TestPartialLinf:
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
        tol, frame = 2.0**-4, Frame(("x", "y"))
        barycenter = MassFunction(frame, {1: 0.625, 3: 0.375})
        box = ApproxBox("x", barycenter, {math.inf: 0.125})
        assert (box.lower.tolist(), box.upper.tolist()) == ([0.5], [0.75])

        def point(inside, stray=0.0):  # mass on x, on y (off the ultrafilter), rest on x,y
            return PseudoMassFunction(frame, {1: inside, 2: stray, 3: 1.0 - inside - stray})

        for edge, away in ((0.5 - tol, -math.inf), (0.75 + tol, math.inf)):
            beyond = math.nextafter(edge, away)
            assert in_mass_box(box, point(edge), tol)
            assert not in_mass_box(box, point(beyond), tol)
        for stray in (tol, -tol):
            assert in_mass_box(box, point(0.625, stray), tol)
            assert not in_mass_box(box, point(0.625, math.nextafter(stray, 2 * stray)), tol)


class TestPartialL2:
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


class TestDegenerateFrames:
    def test_ten_element_frame_stays_fast_and_exact(self, rng):
        frame = Frame(tuple(f"e{i}" for i in range(10)))
        m = random_mass_function(frame, rng)
        pa = partial_l1_mass(m, "e3")
        assert core_of(pa.point) != 0
        assert sum(pa.point.masses.values()) == pytest.approx(1.0, abs=1e-12)
        assert global_linf_mass(m).optima

