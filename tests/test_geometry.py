import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbf import Frame, MassFunction, SpaceKind, partial_l1_mass

from conftest import frame_of_size
from paper_maths import categorical_inner_product, embed, random_mass_function


class TestEmbedding:
    def test_dimensions(self):
        frame = frame_of_size(3)
        m = MassFunction.vacuous(frame)
        assert embed(m, SpaceKind.MASS_N1).shape == (7,)
        assert embed(m, SpaceKind.MASS_N2).shape == (6,)
        assert embed(m, SpaceKind.BELIEF).shape == (6,)

    def test_binary_mass_coordinates(self):
        frame = Frame(("x", "y"))
        m = MassFunction.from_labels(frame, {"x": 0.3, "y": 0.2, "x,y": 0.5})
        assert embed(m, SpaceKind.MASS_N2).tolist() == [0.3, 0.2]

    def test_binary_mass_and_belief_coincide(self, rng):
        frame = Frame(("x", "y"))
        for _ in range(50):
            m = random_mass_function(frame, rng)
            mass_vec = embed(m, SpaceKind.MASS_N2)
            belief_vec = embed(m, SpaceKind.BELIEF)
            assert np.allclose(mass_vec, belief_vec, atol=1e-15)

    def test_running_example_belief_coordinate(self, ternary):
        vec = embed(ternary, SpaceKind.BELIEF)
        assert vec[ternary.frame.subset(("x", "y")) - 1] == pytest.approx(0.7, abs=1e-12)

    def test_vacuous_full_mass_coordinate(self):
        frame = frame_of_size(3)
        vec = embed(MassFunction.vacuous(frame), SpaceKind.MASS_N1)
        assert vec[frame.full_mask - 1] == 1.0
        assert vec.sum() == 1.0

    def test_mass_n1_coordinates_sum_to_one(self, rng):
        frame = frame_of_size(4)
        for _ in range(20):
            m = random_mass_function(frame, rng)
            vec = embed(m, SpaceKind.MASS_N1)
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)


class TestLpDistance:
    def test_zero_for_identical_points(self, ternary):
        u = embed(ternary, SpaceKind.BELIEF)
        assert np.linalg.norm(u - u, ord=1) == 0.0
        assert np.linalg.norm(u - u, ord=math.inf) == 0.0

    def test_running_example_l1_distance_to_partial(self, ternary):
        u = embed(ternary, SpaceKind.MASS_N2)
        v = embed(partial_l1_mass(ternary, "x").point, SpaceKind.MASS_N2)
        assert np.linalg.norm(u - v, ord=1) == pytest.approx(0.4, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_norm_ordering(seed):
    rng = np.random.default_rng(seed)
    frame = frame_of_size(3)
    u = embed(random_mass_function(frame, rng), SpaceKind.MASS_N2)
    v = embed(random_mass_function(frame, rng), SpaceKind.MASS_N2)
    d_inf = np.linalg.norm(u - v, ord=math.inf)
    d_2 = np.linalg.norm(u - v, ord=2)
    d_1 = np.linalg.norm(u - v, ord=1)
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
        for a in range(1, frame.n_subsets):
            va = embed(MassFunction(frame, {a: 1.0}), SpaceKind.BELIEF)
            for b in range(1, frame.n_subsets):
                vb = embed(MassFunction(frame, {b: 1.0}), SpaceKind.BELIEF)
                assert categorical_inner_product(frame, a, b) == int(round(float(va @ vb)))
