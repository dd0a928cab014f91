import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbf import (
    EmbeddingSpace,
    Frame,
    MassFunction,
    SpaceKind,
    embed,
    lp_distance,
    partial_l1_mass,
)

from conftest import frame_of_size
from paper_maths import categorical_inner_product, lemma_alternating_sum, random_mass_function


def _space(kind, frame):
    return EmbeddingSpace(kind, frame)


class TestEmbedding:
    def test_dimensions(self):
        frame = frame_of_size(3)
        assert _space(SpaceKind.MASS_N1, frame).dimension == 7
        assert _space(SpaceKind.MASS_N2, frame).dimension == 6
        assert _space(SpaceKind.BELIEF, frame).dimension == 6

    def test_binary_mass_coordinates(self):
        frame = Frame(("x", "y"))
        m = MassFunction.from_labels(frame, {"x": 0.3, "y": 0.2, "x,y": 0.5})
        vec = embed(m, _space(SpaceKind.MASS_N2, frame))
        assert vec.coords.tolist() == [0.3, 0.2]

    def test_binary_mass_and_belief_coincide(self, rng):
        frame = Frame(("x", "y"))
        for _ in range(50):
            m = random_mass_function(frame, rng)
            mass_vec = embed(m, _space(SpaceKind.MASS_N2, frame))
            belief_vec = embed(m, _space(SpaceKind.BELIEF, frame))
            assert np.allclose(mass_vec.coords, belief_vec.coords, atol=1e-15)

    def test_running_example_belief_coordinate(self, ternary):
        vec = embed(ternary, _space(SpaceKind.BELIEF, ternary.frame))
        assert vec.value_at(ternary.frame.subset(("x", "y"))) == pytest.approx(0.7, abs=1e-12)

    def test_vacuous_full_mass_coordinate(self):
        frame = frame_of_size(3)
        vec = embed(MassFunction.vacuous(frame), _space(SpaceKind.MASS_N1, frame))
        assert vec.value_at(frame.full_mask) == 1.0
        assert vec.coords.sum() == 1.0

    def test_mass_n1_coordinates_sum_to_one(self, rng):
        frame = frame_of_size(4)
        for _ in range(20):
            m = random_mass_function(frame, rng)
            vec = embed(m, _space(SpaceKind.MASS_N1, frame))
            assert vec.coords.sum() == pytest.approx(1.0, abs=1e-12)

    def test_coordinate_masks_ascend(self):
        frame = frame_of_size(3)
        assert list(_space(SpaceKind.MASS_N1, frame).coordinate_masks) == list(range(1, 8))
        assert list(_space(SpaceKind.BELIEF, frame).coordinate_masks) == list(range(1, 7))

    def test_frame_mismatch_rejected(self):
        m = MassFunction.vacuous(frame_of_size(2))
        with pytest.raises(ValueError):
            embed(m, _space(SpaceKind.BELIEF, frame_of_size(3)))


class TestLpDistance:
    def test_zero_for_identical_points(self, ternary):
        space = _space(SpaceKind.BELIEF, ternary.frame)
        u = embed(ternary, space)
        assert lp_distance(u, u, 1) == 0.0
        assert lp_distance(u, u, math.inf) == 0.0

    def test_running_example_l1_distance_to_partial(self, ternary):
        space = _space(SpaceKind.MASS_N2, ternary.frame)
        u = embed(ternary, space)
        v = embed(partial_l1_mass(ternary, "x").result, space)
        assert lp_distance(u, v, 1) == pytest.approx(0.4, abs=1e-12)

    def test_space_mismatch_rejected(self, ternary):
        u = embed(ternary, _space(SpaceKind.MASS_N2, ternary.frame))
        v = embed(ternary, _space(SpaceKind.BELIEF, ternary.frame))
        with pytest.raises(ValueError):
            lp_distance(u, v, 2)

    def test_unsupported_order_rejected(self, ternary):
        space = _space(SpaceKind.MASS_N2, ternary.frame)
        u = embed(ternary, space)
        with pytest.raises(ValueError):
            lp_distance(u, u, 3)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_norm_ordering(seed):
    rng = np.random.default_rng(seed)
    frame = frame_of_size(3)
    space = _space(SpaceKind.MASS_N2, frame)
    u = embed(random_mass_function(frame, rng), space)
    v = embed(random_mass_function(frame, rng), space)
    d_inf = lp_distance(u, v, math.inf)
    d_2 = lp_distance(u, v, 2)
    d_1 = lp_distance(u, v, 1)
    assert d_inf <= d_2 + 1e-12
    assert d_2 <= d_1 + 1e-12


class TestCategoricalInnerProduct:
    def test_singleton_pair_on_ternary(self):
        frame = frame_of_size(3)
        assert categorical_inner_product(frame, frame.singleton("x"), frame.singleton("y")) == 1

    def test_full_frame_pair_is_zero(self):
        frame = frame_of_size(3)
        assert categorical_inner_product(frame, frame.full_mask, frame.full_mask) == 0

    def test_empty_subset_rejected(self):
        frame = frame_of_size(3)
        with pytest.raises(ValueError):
            categorical_inner_product(frame, 0, 1)

    def test_matches_explicit_dot_product(self):
        # brute force: embed both categorical masses and take the dot product
        frame = frame_of_size(4)
        space = _space(SpaceKind.BELIEF, frame)
        for a in range(1, frame.n_subsets):
            va = embed(MassFunction(frame, {a: 1.0}), space).coords
            for b in range(1, frame.n_subsets):
                vb = embed(MassFunction(frame, {b: 1.0}), space).coords
                assert categorical_inner_product(frame, a, b) == int(round(float(va @ vb)))


class TestLemmaAlternatingSum:
    def test_subset_gives_one(self):
        frame = frame_of_size(3)
        a = frame.singleton("x")
        b = frame.subset(("x", "y"))
        assert lemma_alternating_sum(frame, a, b) == 1

    def test_non_subset_gives_zero(self):
        frame = frame_of_size(3)
        a = frame.singleton("z")
        b = frame.subset(("x", "y"))
        assert lemma_alternating_sum(frame, a, b) == 0

    def test_indicator_on_all_pairs(self):
        # the sum itself is the direct summation; check it lands on the
        # indicator for proper B and degenerates to 0 at the full frame
        for n in (1, 2, 3, 4):
            frame = frame_of_size(n)
            for a in range(1, frame.n_subsets):
                for b in range(frame.n_subsets):
                    if b == frame.full_mask:
                        expected = 0
                    else:
                        expected = 1 if a & b == a else 0
                    assert lemma_alternating_sum(frame, a, b) == expected
