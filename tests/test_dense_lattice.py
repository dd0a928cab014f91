"""The dense lattice criteria and gamma inversion against their definitions.

Every cell's criteria are checked against the exact values of
:mod:`reference`, read from the focal sets alone: at frame sizes up to 7, on
sparse documents up to 16 and at 20 and 22, and at 9 to 12 with every focus's
distance, point and Linf box too.  The gamma inversion is checked against its
definitional submask loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from csbf import (
    ApproxBox,
    Frame,
    GammaBox,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    core_of,
    gamma_to_mass,
    partial_linf_belief,
)
from csbf import consistent_belief, consistent_mass, core
from csbf.consistent_mass import select_optima
from csbf.core import fold, outside_sums, split, zeta_transform
from csbf.oracle import CELLS, brute_force_partial, globals_agree

from conftest import frame_of_size, masses_close
from paper_maths import random_mass_function

TOL = 1e-12


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def reference_gamma_to_mass(m, box, gamma_point):
    """Per-mask alternating sums over the sublattice, O(3^(n-1)); ``m`` is the box's source."""
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
        masses[mask] = m.as_array()[mask] - shift
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
    # a partial's distance, squared for L2, is its criterion too
    exact = reference.criteria(m.frame.size, m.masses)
    for (p, kind), cell in CELLS.items():
        values = cell.select(m).criterion_values
        assert list(values) == list(m.frame.elements)
        for x, expected in zip(m.frame.elements, exact[p, kind]):
            distance = cell.solve(m, x).distances[p]
            assert type(values[x]) is float, (p, kind, x)
            assert abs(values[x] - expected) <= TOL, (p, kind, x, values[x], expected)
            assert abs((distance**2 if p == 2 else distance) - expected) <= TOL, (p, kind, x)


@given(mass_functions(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_dense_gamma_to_mass_matches_the_reference_loop(m, seed):
    rng = np.random.default_rng(seed)
    x = m.frame.elements[int(rng.integers(m.frame.size))]
    box = partial_linf_belief(m, x)
    count = box.members.size
    points = [(box.lower + box.upper) / 2]
    for _ in range(3):
        points.append(np.where(rng.integers(2, size=count).astype(bool), box.upper, box.lower))
        points.append(box.lower + rng.random(count) * (box.upper - box.lower))
    for point in points:
        dense = gamma_to_mass(box, point)
        assert masses_close(dense, reference_gamma_to_mass(m, box, point), tol=TOL)


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
    if isinstance(payload, GammaBox):
        return [gamma_to_mass(payload, (payload.lower + payload.upper) / 2)]
    return [payload.point]


@given(consistent_mass_functions())
@settings(max_examples=150, deadline=None)
def test_consistent_inputs_are_fixed_points(m):
    # every other element misses a focal set of mass >= 0.01 / 12, whose
    # criterion contribution is far above the tie tolerance
    core = tuple(x for i, x in enumerate(m.frame.elements) if core_of(m) >> i & 1)
    for key, cell in CELLS.items():
        result = cell.select(m)
        assert [result.criterion_values[x] for x in core] == [0.0] * len(core), key
        assert result.optima == core, key
        for x in result.optima:
            payload = cell.solve(m, x)
            if isinstance(payload, ApproxBox):
                assert (payload.lower == payload.upper).all(), (key, x)
            if isinstance(payload, GammaBox):
                assert (payload.upper - payload.lower == 0.0).all(), (key, x)
            for point in partial_masses(payload):
                assert masses_close(point, m, tol=TOL), (key, x)


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
    for key, cell in CELLS.items():
        optima = cell.select(sym).optima
        assert (first in optima) == (second in optima), (key, optima)


@given(st.integers(1, 7), st.data())
@settings(max_examples=100, deadline=None)
def test_select_optima_keeps_every_tie(n, data):
    # ties are decided on the distances; the criterion, here their squares as
    # for L2, is only reported, and a 3 * core.TOL gap in distance is no tie
    # even where the squares differ by far less than core.TOL
    frame = frame_of_size(n)
    best = data.draw(st.floats(0.0, 1.0))
    offsets = data.draw(
        st.lists(st.sampled_from([0.0, core.TOL / 4, 3 * core.TOL, 0.5]), min_size=n, max_size=n)
    )
    offsets[data.draw(st.integers(0, n - 1))] = 0.0
    distances = np.array([best + d for d in offsets])
    result = select_optima(frame.elements, distances**2, distances)
    within = tuple(x for x, d in zip(frame.elements, offsets) if d <= core.TOL / 4)
    assert result.optima == within
    assert list(result.criterion_values.values()) == (distances**2).tolist()


def near_tie(frame, closer, other, gap, a=0.1):
    """A sparse document whose partial distances at ``closer`` and ``other`` are
    the two best in every cell, with ``other``'s larger by ``gap`` times the
    slope of the cell's distance in ``m({closer})``.

    Each of the two elements misses only the other's singleton and the sets
    holding neither; the latter carry no mass, and ``{closer, other}`` and its
    supersets carry the rest, so every third element is far behind.
    """
    pair = frame.singleton(closer) | frame.singleton(other)
    vector = np.zeros(frame.n_subsets)
    vector[frame.singleton(other)] = a
    vector[frame.singleton(closer)] = a + gap
    vector[pair] = 0.3
    vector[frame.full_mask] += 1.0 - vector.sum()
    return MassFunction(frame, vector)


@pytest.mark.parametrize("n", [2, 3, 4, 9, 16, 22])
def test_every_cell_ties_on_distances(n):
    # two best distances 0.5 * core.TOL apart tie, 2 * core.TOL apart do not,
    # in every cell: checked against the partials' own distances on every
    # frame, and against the oracle's argmin sets where it runs
    rng = np.random.default_rng(n)
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    closer, other = rng.choice(frame.elements, size=2, replace=False).tolist()
    for (p, kind), cell in CELLS.items():
        where = (p, kind.value)

        def distance(m, x):
            return cell.solve(m, x).distances[p]

        # the distance at closer does not depend on the gap, and the one at
        # other is affine in it, so one probe gives the slope
        best = distance(near_tie(frame, closer, other, 0.0), closer)
        slope = (distance(near_tie(frame, closer, other, 1e-3), other) - best) / 1e-3
        for factor in (0.5, 2.0):
            m = near_tie(frame, closer, other, factor * core.TOL / slope)
            gap = distance(m, other) - best
            assert abs(gap - factor * core.TOL) <= 0.1 * core.TOL, (where, factor, gap)
            result = cell.select(m)
            tied = {closer} if factor > 1 else {closer, other}
            assert set(result.optima) == tied, (where, factor)
            if n > 4:
                continue
            reports = {x: brute_force_partial(m, x, p, kind) for x in frame.elements}
            oracle = {x: r.oracle_distance for x, r in reports.items()}
            assert {x for x, d in oracle.items() if d <= min(oracle.values()) + core.TOL} == tied
            assert globals_agree(result, reports), (where, factor)


def test_selectors_build_no_partial_solution(ternary, rng, monkeypatch):
    # a selector is a criterion vector and its argmin; the partial solution
    # of an optimum comes from the cell's own solver, when a caller asks
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    solvers = {
        consistent_mass: ("partial_l1_mass", "partial_l2_mass", "partial_linf_mass"),
        consistent_belief: ("focused_transform", "partial_linf_belief"),
    }
    for module, names in solvers.items():
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for m in (ternary, *(random_mass_function(frame_of_size(n), rng) for n in range(1, 7))):
        for key, cell in CELLS.items():
            assert cell.select(m).optima, key
    assert calls == []


def test_partial_distance_is_the_criterion_value_bit_for_bit(rng):
    # L2 criteria are squared distances, so their partials hold the square root
    for n in range(2, 9):
        frame = frame_of_size(n)
        for _ in range(20):
            m = random_mass_function(frame, rng)
            for (p, kind), cell in CELLS.items():
                values = cell.select(m).criterion_values
                for x in frame.elements:
                    distance = cell.solve(m, x).distances[p]
                    expected = math.sqrt(values[x]) if p == 2 else values[x]
                    assert float.hex(distance) == float.hex(expected), ((p, kind.value), x)


def test_cells_run_no_lattice_sweep_but_the_belief_vector(rng, monkeypatch):
    # selectors fold the subsets of every x^c in one O(2^n) pass: the mass
    # cells and the Linf belief selector read m and run no O(n 2^n) sweep;
    # the L1/L2 belief selectors run one over all 2^n entries, for b, and
    # every belief partial one over the 2^(n-1) subsets of x^c alone.  Every
    # partial folds only its own half, the 2^(n-1) entries without x: the
    # sums of m (L1 mass), and with them the squares (L2 mass, the focused
    # transform's b) or the maxima (Linf mass); Linf belief reads b(x^c) off
    # its sweep and folds nothing
    folds_per_partial = {key: 2 for key in CELLS}
    folds_per_partial[1, SpaceKind.MASS_N2], folds_per_partial[math.inf, SpaceKind.BELIEF] = 1, 0
    sweeps, folds = [], []
    sweep = core._sweep

    def counted(values, op):
        sweeps.append((op, np.size(values)))
        return sweep(values, op)

    def counted_fold(values, op=np.add):
        folds.append(np.size(values))
        return core.fold(values, op)

    monkeypatch.setattr(core, "_sweep", counted)
    for module in (consistent_mass, consistent_belief):
        monkeypatch.setattr(module, "fold", counted_fold)
    m = random_mass_function(frame_of_size(5), rng)
    for (p, kind), cell in CELLS.items():
        sweeps.clear()
        cell.select(m)
        expected = [(np.add, 32)] if kind is SpaceKind.BELIEF and p != math.inf else []
        assert sweeps == expected, ("select", p, kind.value)
        for x in m.frame.elements:
            sweeps.clear()
            folds.clear()
            cell.solve(m, x)
            expected = [(np.add, 16)] if kind is SpaceKind.BELIEF else []
            assert sweeps == expected, ((p, kind.value), x)
            assert folds == [16] * folds_per_partial[p, kind], ((p, kind.value), x)


def test_no_partial_folds_every_focus(rng, monkeypatch):
    # outside_sums folds every focus at once, for the selectors alone (m and
    # m**2 for L2 mass-n1, one vector for every other cell); a partial folds
    # only its own half and never calls it
    calls = []

    def counted(*args):
        calls.append(np.size(args[0]))
        return outside_sums(*args)

    for module in (core, consistent_mass, consistent_belief):
        monkeypatch.setattr(module, "outside_sums", counted)
    m = random_mass_function(frame_of_size(5), rng)
    for (p, kind), cell in CELLS.items():
        calls.clear()
        cell.select(m)
        assert calls == [32] * (2 if kind is SpaceKind.MASS_N1 else 1), ("select", p, kind.value)
        for x in m.frame.elements:
            calls.clear()
            cell.solve(m, x)
            assert calls == [], ((p, kind.value), x)


#: Signed reals from 1e-300 to 1e300 in magnitude, zeros of both signs included.
signed_reals = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),
    st.booleans(),
)


@given(
    st.integers(1, 12),
    st.lists(signed_reals, min_size=1, max_size=32),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_outside_sums_are_the_zeta_transform_at_the_coatoms_bit_for_bit(n, palette, seed):
    # 2^n entries drawn from the palette, so every magnitude and sign mixes
    values = np.array(palette)[np.random.default_rng(seed).integers(len(palette), size=1 << n)]
    zeta = zeta_transform(values)
    full = values.size - 1
    sums = outside_sums(values)
    assert sums.shape == (n,)
    for i in range(n):
        expected = float(zeta[full ^ (1 << i)])
        assert float.hex(float(sums[i])) == float.hex(expected), i
    # the max fold is the largest entry without bit i, exact in any order
    magnitudes = np.abs(values)
    largest = outside_sums(magnitudes, np.maximum)
    for i in range(n):
        expected = float(magnitudes.reshape(-1, 2, 1 << i)[:, 0, :].max())
        assert float.hex(float(largest[i])) == float.hex(expected), i
    # every mass partial folds its own half, the masks without bit i in
    # ascending order: the same entry, bit for bit, for both operations
    masks = np.arange(values.size)
    for i in range(n):
        without, within = split(masks, 1 << i)
        assert np.array_equal(without.ravel(), masks[masks >> i & 1 == 0]), i
        assert np.array_equal(within.ravel(), masks[masks >> i & 1 == 1]), i
        assert float.hex(fold(split(values, 1 << i)[0])) == float.hex(float(sums[i])), i
        largest_i = fold(split(magnitudes, 1 << i)[0], np.maximum)
        assert float.hex(largest_i) == float.hex(float(largest[i])), i
    # the halves are views: writing through either changes the input
    for xbit in (1, 1 << (n - 1)):
        without, within = split(values, xbit)
        without[0, 0], within[0, 0] = 7.0, 8.0
        assert values[0] == 7.0 and values[xbit] == 8.0, xbit


@st.composite
def relabelled_pairs(draw, max_size=6):
    """One mass function on a frame and on a permutation of that frame.

    The weights are small integers over their total, so two criterion values
    either tie in exact arithmetic or differ by far more than the tie
    tolerance: each frame's optima are then the same set whatever the
    summation order.
    """
    frame = frame_of_size(draw(st.integers(2, max_size)))
    permuted = Frame(draw(st.permutations(frame.elements)))
    weights = draw(
        st.dictionaries(st.integers(1, frame.full_mask), st.integers(1, 9), min_size=1, max_size=12)
    )
    total = sum(weights.values())
    by_labels = {frame.format_subset(a): w / total for a, w in weights.items()}
    return MassFunction.from_labels(frame, by_labels), MassFunction.from_labels(permuted, by_labels)


def by_subset_label(frame, masks, values):
    return {frozenset(frame.format_subset(a).split(",")): v for a, v in zip(masks, values)}


def assert_same_by_label(first, second, what):
    for key in first.keys() | second.keys():
        assert abs(first.get(key, 0.0) - second.get(key, 0.0)) <= TOL, (what, sorted(key))


@given(relabelled_pairs())
@settings(max_examples=60, deadline=None)
def test_every_cell_is_equivariant_under_relabelling(pair):
    m, image = pair
    for (p, kind), cell in CELLS.items():
        where = (p, kind.value)
        result, moved = cell.select(m), cell.select(image)
        for x in m.frame.elements:
            gap = abs(result.criterion_values[x] - moved.criterion_values[x])
            assert gap <= TOL, (where, x)
        assert set(result.optima) == set(moved.optima), where
        for x in m.frame.elements:
            partials = cell.solve(m, x), cell.solve(image, x)
            (distance, point), (image_distance, image_point) = (
                (s.distances[p], s.point) for s in partials
            )
            assert abs(distance - image_distance) <= TOL, (where, x)
            assert_same_by_label(
                by_subset_label(m.frame, point.masses, point.masses.values()),
                by_subset_label(image.frame, image_point.masses, image_point.masses.values()),
                (where, x),
            )
            if isinstance(partials[0], (ApproxBox, GammaBox)):
                box, image_box = partials
                for bound in ("lower", "upper"):
                    assert_same_by_label(
                        by_subset_label(m.frame, box.members, getattr(box, bound)),
                        by_subset_label(image.frame, image_box.members, getattr(image_box, bound)),
                        (where, x, bound),
                    )


def assert_near(got, exact, what):
    """Each of ``got`` within TOL * max(1, |e|) of e, its exact value rounded once."""
    expected = np.array([float(v) for v in np.ravel(exact)])
    assert (np.abs(got - expected) <= TOL * np.maximum(1.0, np.abs(expected))).all(), what


def assert_cells_match_the_focal_list(frame, masks, masses):
    """Every cell's criteria against the exact ones; returns the document and those."""
    focal = dict(zip(masks.tolist(), masses.tolist()))
    m, exact = MassFunction(frame, focal), reference.criteria(frame.size, focal)
    assert exact.keys() == CELLS.keys()
    for key, cell in CELLS.items():
        got = cell.select(m).criterion_values
        for x, expected in zip(frame.elements, exact[key]):
            assert_near(got[x], expected, (key, x))
    return m, exact


@pytest.mark.parametrize("n", range(9, 13))
def test_large_frames_match_direct_per_focus_sums(n):
    # every focus of every cell: criterion, optima, distance, point and Linf box
    rng = np.random.default_rng(900 + n)
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    masks = rng.choice(np.arange(1, frame.n_subsets), size=3 * n, replace=False)
    m, exact = assert_cells_match_the_focal_list(frame, masks, rng.dirichlet(np.ones(masks.size)))
    for key, cell in CELLS.items():
        p, distances = key[0], [math.sqrt(v) if key[0] == 2 else v for v in exact[key]]
        best = min(distances)
        within = tuple(x for x, d in zip(frame.elements, distances) if d <= best + core.TOL)
        assert cell.select(m).optima == within, key
        for i, x in enumerate(frame.elements):
            payload = cell.solve(m, x)
            assert_near(payload.distances[p], distances[i], (key, x))
            point = reference.point(n, m.masses, key, i)
            expected = [point.get(a, 0) for a in range(frame.n_subsets)]
            assert_near(payload.point.as_array(), expected, (key, x))
            if isinstance(payload, (ApproxBox, GammaBox)):
                ends = reference.bounds(n, m.masses, key, i)
                assert payload.members.tolist() == list(ends), (key, x)
                for bound, exact_ends in zip((payload.lower, payload.upper), zip(*ends.values())):
                    assert_near(bound, exact_ends, (key, x))


@st.composite
def sparse_documents(draw):
    n = draw(st.integers(1, 16))
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=64, unique=True))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(masks), max_size=len(masks)))
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    return frame, np.array(masks), np.array(weights) / sum(weights)


@given(sparse_documents())
@settings(max_examples=100, deadline=None)
def test_every_cell_matches_the_focal_list(document):
    assert_cells_match_the_focal_list(*document)


@pytest.mark.parametrize("n", [20, 22])
def test_every_cell_matches_the_focal_list_on_large_frames(n):
    rng = np.random.default_rng(2400 + n)
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    masks = rng.choice(frame.n_subsets - 1, size=64, replace=False) + 1
    assert_cells_match_the_focal_list(frame, masks, rng.dirichlet(np.ones(64)))
