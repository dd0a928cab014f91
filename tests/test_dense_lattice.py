"""The dense lattice criteria and gamma inversion against their definitions.

The reference functions below are the definitional submask loops, kept here
only to check the transform-based code, at frame sizes up to 7.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from csbf import (
    ApproxBox,
    GammaBox,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    core_of,
    focused_transform,
    gamma_to_mass,
    global_l1_belief,
    global_l1_mass,
    global_l2_belief,
    global_l2_mass,
    global_linf_belief,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_belief,
    partial_linf_mass,
)
from csbf.consistent_mass import TIE_TOL, argmin_elements
from csbf.core import coatoms, submax_transform

from conftest import frame_of_size

TOL = 1e-12

SELECTORS = {
    "l1/mass": global_l1_mass,
    "l2/mass-n1": lambda m: global_l2_mass(m, SpaceKind.MASS_N1),
    "l2/mass-n2": lambda m: global_l2_mass(m, SpaceKind.MASS_N2),
    "linf/mass": global_linf_mass,
    "l1/belief": global_l1_belief,
    "l2/belief": global_l2_belief,
    "linf/belief": global_linf_belief,
}

#: Attained partial distance per mode; L2 criteria are squared distances.
PARTIAL_DISTANCES = {
    "l1/mass": lambda m, x: partial_l1_mass(m, x).distance,
    "l2/mass-n1": lambda m, x: partial_l2_mass(m, x, SpaceKind.MASS_N1).distance ** 2,
    "l2/mass-n2": lambda m, x: partial_l2_mass(m, x, SpaceKind.MASS_N2).distance ** 2,
    "linf/mass": lambda m, x: partial_linf_mass(m, x).distance,
    "l1/belief": lambda m, x: focused_transform(m, x).distance_l1,
    "l2/belief": lambda m, x: focused_transform(m, x).distance_l2 ** 2,
    "linf/belief": lambda m, x: partial_linf_belief(m, x).distance,
}


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def reference_criteria(m):
    """Every global criterion by its definition, one submask loop per element."""
    frame = m.frame
    crit = {mode: {} for mode in SELECTORS}

    def belief(a):
        return sum(m.masses.get(b, 0.0) for b in submasks(a))

    for i, x in enumerate(frame.elements):
        comp = frame.full_mask ^ (1 << i)
        outside = [m.masses.get(b, 0.0) for b in submasks(comp)]
        beliefs = [belief(a) for a in submasks(comp)]
        moved, squares = sum(outside), sum(v * v for v in outside)
        crit["l1/mass"][x] = moved
        crit["l2/mass-n1"][x] = moved * moved / (1 << (frame.size - 1)) + squares
        crit["l2/mass-n2"][x] = squares
        crit["linf/mass"][x] = max(outside)
        crit["l1/belief"][x] = sum(beliefs)
        crit["l2/belief"][x] = sum(v * v for v in beliefs)
        crit["linf/belief"][x] = belief(comp)
    return crit


def reference_gamma_to_mass(box, gamma_point):
    """Per-mask alternating sums over the sublattice, O(3^(n-1))."""
    frame = box.frame
    xbit = frame.singleton(box.focus)
    gamma_point = dict(zip(box.members.tolist(), gamma_point.tolist()))
    masses = {}
    for mask in gamma_point:
        rest = mask ^ xbit
        shift = 0.0
        for sub in submasks(rest):
            sign = -1.0 if bin(rest ^ sub).count("1") % 2 else 1.0
            shift += sign * gamma_point[sub | xbit]
        masses[mask] = box.source.value(mask) - shift
    masses[frame.full_mask] = 1.0 - sum(masses.values())
    return PseudoMassFunction(frame, masses)


@st.composite
def mass_functions(draw, max_size=7):
    frame = frame_of_size(draw(st.integers(1, max_size)))
    masks = draw(
        st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=12, unique=True)
    )
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks), max_size=len(masks)))
    total = sum(weights)
    return MassFunction(frame, {a: w / total for a, w in zip(masks, weights)})


@given(mass_functions())
@settings(max_examples=150, deadline=None)
def test_dense_criteria_match_their_definitions(m):
    reference = reference_criteria(m)
    for mode, select in SELECTORS.items():
        values = select(m).criterion_values
        assert list(values) == list(m.frame.elements)
        for x, expected in reference[mode].items():
            assert type(values[x]) is float, (mode, x)
            assert abs(values[x] - expected) <= TOL, (mode, x, values[x], expected)
            assert abs(PARTIAL_DISTANCES[mode](m, x) - expected) <= TOL, (mode, x)


@given(mass_functions(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_dense_gamma_to_mass_matches_the_reference_loop(m, seed):
    rng = np.random.default_rng(seed)
    x = m.frame.elements[int(rng.integers(m.frame.size))]
    box = partial_linf_belief(m, x)
    count = box.members.size
    points = [box.midpoint()]
    for _ in range(3):
        points.append(np.where(rng.integers(2, size=count).astype(bool), box.upper, box.lower))
        points.append(box.lower + rng.random(count) * (box.upper - box.lower))
    for point in points:
        dense = gamma_to_mass(box, point)
        assert dense.allclose(reference_gamma_to_mass(box, point), tol=TOL)


@st.composite
def consistent_mass_functions(draw, max_size=7):
    """Masses only on supersets of a nonempty core, each at least 0.01 / 12."""
    frame = frame_of_size(draw(st.integers(1, max_size)))
    core = draw(st.integers(1, frame.full_mask))
    supersets = st.integers(0, frame.full_mask).map(lambda a: a | core)
    masks = draw(st.lists(supersets, min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks), max_size=len(masks)))
    total = sum(weights)
    return MassFunction(frame, {a: w / total for a, w in zip(masks, weights)})


def partial_masses(payload):
    """The mass functions a partial solution stands for; a box's are its center."""
    if isinstance(payload, ApproxBox):
        return [payload.barycenter, payload.midpoint_masses()]
    if isinstance(payload, GammaBox):
        return [gamma_to_mass(payload, payload.midpoint())]
    return [payload.result]


@given(consistent_mass_functions())
@settings(max_examples=150, deadline=None)
def test_consistent_inputs_are_fixed_points(m):
    # every other element misses a focal set of mass >= 0.01 / 12, whose
    # criterion contribution is far above the tie tolerance
    core = tuple(x for i, x in enumerate(m.frame.elements) if core_of(m) >> i & 1)
    for mode, select in SELECTORS.items():
        result = select(m)
        assert [result.criterion_values[x] for x in core] == [0.0] * len(core), mode
        assert result.optima == core, mode
        for x, payload in result.payloads.items():
            if isinstance(payload, ApproxBox):
                assert (payload.lower == payload.upper).all(), (mode, x)
            if isinstance(payload, GammaBox):
                assert (payload.upper - payload.lower == 0.0).all(), (mode, x)
            for point in partial_masses(payload):
                assert point.allclose(m, tol=TOL), (mode, x)


@given(mass_functions(max_size=6))
@settings(max_examples=100, deadline=None)
def test_symmetric_ties_are_returned_in_full(m):
    # averaging m with its image under swapping the first two elements makes
    # their criteria equal in exact arithmetic; every selector must list both
    # or neither, whatever the rounding of the transforms
    frame = m.frame
    if frame.size < 2:
        return

    def swap(a):
        return (a & ~3) | ((a & 1) << 1) | ((a >> 1) & 1)

    masses = {}
    for a, v in m.masses.items():
        for b in (a, swap(a)):
            masses[b] = masses.get(b, 0.0) + v / 2
    sym = MassFunction(frame, masses)
    first, second = frame.elements[:2]
    for mode, select in SELECTORS.items():
        optima = select(sym).optima
        assert (first in optima) == (second in optima), (mode, optima)


@given(st.integers(1, 7), st.data())
@settings(max_examples=100, deadline=None)
def test_argmin_elements_keeps_every_tie(n, data):
    frame = frame_of_size(n)
    best = data.draw(st.floats(0.0, 1.0))
    offsets = data.draw(
        st.lists(st.sampled_from([0.0, TIE_TOL / 4, 3 * TIE_TOL, 0.5]), min_size=n, max_size=n)
    )
    offsets[data.draw(st.integers(0, n - 1))] = 0.0
    criterion = {x: best + d for x, d in zip(frame.elements, offsets)}
    within = tuple(x for x, d in zip(frame.elements, offsets) if d <= TIE_TOL / 4)
    assert argmin_elements(frame, criterion, TIE_TOL) == within


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(st.floats(-1.0, 1.0), min_size=1 << n, max_size=1 << n)
    )
)
@settings(max_examples=100, deadline=None)
def test_submax_transform_is_the_subset_maximum(values):
    out = submax_transform(np.array(values))
    for a in range(len(values)):
        assert out[a] == max(values[b] for b in submasks(a))


def test_coatoms_are_the_complements_of_the_singletons():
    frame = frame_of_size(5)
    expected = [frame.complement(frame.singleton(x)) for x in frame.elements]
    assert coatoms(frame).tolist() == expected
    assert coatoms(frame_of_size(1)).tolist() == [0]
