import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbf import (
    EvidenceError,
    Frame,
    MassFunction,
    PseudoMassFunction,
    belief_from_mass,
    contour,
    core_of,
    partial_l1_mass,
)
from csbf import cli
from csbf.core import mobius_transform, superset_sum_transform, zeta_transform

from conftest import frame_of_size, masses_close
from paper_maths import random_mass_function
from test_writer import _dumps, blocks


@st.composite
def mass_functions(draw, min_size=2, max_size=4):
    n = draw(st.integers(min_size, max_size))
    frame = frame_of_size(n)
    n_subsets = 1 << n
    masks = draw(
        st.lists(st.integers(1, n_subsets - 1), min_size=1, max_size=6, unique=True)
    )
    weights = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    total = sum(weights)
    return MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


class TestFrame:
    def test_masks_and_labels_round_trip(self):
        frame = Frame(("x", "y", "z"))
        assert frame.subset(("x", "z")) == 0b101
        assert frame.format_subset(0b101) == "x,z"
        assert frame.parse_subset("z, x") == 0b101
        assert frame.full_mask ^ 0b101 == 0b010

    def test_rejects_bad_frames(self):
        with pytest.raises(EvidenceError):
            Frame(())
        with pytest.raises(EvidenceError):
            Frame(("x", "x"))
        with pytest.raises(EvidenceError):
            Frame(("a,b",))
        with pytest.raises(EvidenceError):
            Frame(tuple(f"e{i}" for i in range(25)))
        for unhashable in (["a"], {"a": 1}):
            with pytest.raises(EvidenceError, match="frame elements must be nonempty strings"):
                Frame((unhashable,))

    def test_rejects_out_of_range_mask(self):
        frame = Frame(("x", "y"))
        with pytest.raises(EvidenceError):
            frame.check_mask(4)


def definitional_text(frame: Frame, mask: int) -> str:
    return ",".join(lbl for i, lbl in enumerate(frame.elements) if mask >> i & 1)


class TestFrameLabels:
    """The label tables against the definitional join in frame order."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_mask_up_to_ten_elements(self, n):
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        masks = range(frame.n_subsets)
        texts = [definitional_text(frame, mask) for mask in masks]
        assert frame.format_subsets(masks) == texts
        assert [frame.format_subset(mask) for mask in masks] == texts
        assert [frame.parse_subset(text) for text in texts[1:]] == list(masks)[1:]

    @pytest.mark.parametrize("n", [23, 24])
    def test_random_masks_on_large_frames(self, n):
        frame = Frame(tuple(f"label{i}" for i in range(n)))
        rng = np.random.default_rng(n)
        masks = [0, 1, frame.full_mask, 1 << (n - 1)]
        masks += rng.integers(1, frame.n_subsets, size=1000).tolist()
        texts = [definitional_text(frame, mask) for mask in masks]
        assert frame.format_subsets(masks) == texts
        assert [frame.format_subset(mask) for mask in masks] == texts
        assert [frame.parse_subset(text) for text in texts[1:]] == masks[1:]
        shuffled = [", ".join(reversed(text.split(","))) for text in texts[1:]]
        assert [frame.parse_subset(text) for text in shuffled] == masks[1:]

    @given(blocks())
    @settings(max_examples=100, deadline=None)
    def test_gather_texts_add_before_and_after_to_each_key(self, case):
        # labels that need JSON escapes; masks with an empty low or high half
        frame, masks, _ = case
        escaped = [cli._json_escape(definitional_text(frame, mask)) for mask in masks]
        variants = [("", ""), (',\n    "', '": '), (',\n  "', '": [\n    '), ("", '": ')]
        # each variant after the others on the same frame: no two share a table
        for before, after in variants + variants[::-1]:
            heads, tails = frame.gather_texts(masks, cli._json_escape, before, after)
            assert (heads + tails).tolist() == [before + key + after for key in escaped]
        heads, tails = frame.gather_texts(masks, str, "<", ">")
        assert (heads + tails).tolist() == [f"<{definitional_text(frame, mask)}>" for mask in masks]
        assert frame.format_subsets(masks) == [definitional_text(frame, mask) for mask in masks]

    @pytest.mark.parametrize("n", [1, 2, 3, 24])
    def test_out_of_range_masks_rejected(self, n):
        frame = Frame(tuple(f"e{i}" for i in range(n)))
        for mask in (-1, frame.n_subsets):
            with pytest.raises(EvidenceError, match="out of range"):
                frame.format_subset(mask)
            with pytest.raises(EvidenceError, match="out of range"):
                frame.format_subsets([1, mask, 0])

    def test_parse_errors(self):
        frame = Frame(("x", "y", "z"))
        cases = {
            "q": "unknown frame element 'q'",
            "x, q": "unknown frame element 'q'",
            "": "malformed subset key ''",
            "x,,y": "malformed subset key 'x,,y'",
            "x,": "malformed subset key 'x,'",
            "x,x": "subset key 'x,x' repeats an element",
            "x, x": "subset key 'x, x' repeats an element",
            "x,y,x": "subset key 'x,y,x' repeats an element",
        }
        for text, message in cases.items():
            with pytest.raises(EvidenceError) as info:
                frame.parse_subset(text)
            assert str(info.value) == message
        assert frame.parse_subset(" y , x") == 0b011

    def test_tables_stay_out_of_eq_hash_and_repr(self):
        a, b = Frame(("x", "y", "z")), Frame(["x", "y", "z"])
        assert a == b and hash(a) == hash(b)
        assert a != Frame(("x", "z", "y"))
        assert repr(a) == "Frame(elements=('x', 'y', 'z'))"
        assert {a: 1}[b] == 1


class TestMassFunction:
    def test_sum_must_be_one(self):
        frame = Frame(("x", "y"))
        with pytest.raises(EvidenceError):
            MassFunction(frame, {1: 0.5, 2: 0.4})

    def test_empty_set_mass_rejected(self):
        frame = Frame(("x", "y"))
        with pytest.raises(EvidenceError):
            MassFunction(frame, {0: 0.5, 3: 0.5})

    def test_tiny_negative_clamped_larger_rejected(self):
        frame = Frame(("x", "y"))
        m = MassFunction(frame, {1: -5e-10, 3: 1.0 + 5e-10})
        assert m.as_array()[1] == 0.0
        with pytest.raises(EvidenceError):
            MassFunction(frame, {1: -1e-6, 3: 1.0 + 1e-6})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_rejected(self, bad):
        frame = Frame(("x", "y"))
        for cls in (MassFunction, PseudoMassFunction):
            with pytest.raises(EvidenceError, match="not finite"):
                cls(frame, {1: bad, 2: 1.0})
            with pytest.raises(EvidenceError, match="not finite"):
                cls(frame, {0: bad, 2: 1.0})

    def test_int_too_large_for_a_float_rejected(self):
        frame = Frame(("x", "y"))
        for cls in (MassFunction, PseudoMassFunction):
            with pytest.raises(EvidenceError, match="mass of 'x' is too large for a float"):
                cls(frame, {1: 10**400})
            with pytest.raises(EvidenceError, match="mass of 'y' is too large for a float"):
                cls(frame, {1: 0.5, 2: -(10**400)})

    @pytest.mark.parametrize("key", [1.5, "1", True])
    def test_non_integer_mask_key_rejected(self, key):
        frame = Frame(("x", "y"))
        for cls in (MassFunction, PseudoMassFunction):
            with pytest.raises(EvidenceError, match=re.escape(f"subset mask {key!r} is not an integer")):
                cls(frame, {key: 1.0})
        assert MassFunction(frame, {np.int64(3): 1.0}) == MassFunction.vacuous(frame)

    @pytest.mark.parametrize("key", [True, 3, 2.5])
    def test_from_labels_key_neither_string_nor_labels_rejected(self, key):
        frame = Frame(("x", "y"))
        message = f"subset key {key!r} is neither a string nor an iterable of labels"
        for cls in (MassFunction, PseudoMassFunction):
            with pytest.raises(EvidenceError, match=re.escape(message)):
                cls.from_labels(frame, {key: 1.0})
        assert MassFunction.from_labels(frame, {("y", "x"): 1.0}) == MassFunction.vacuous(frame)

    def test_from_labels_finds_a_duplicate_in_linear_time(self):
        # every subset of 14 elements plus one permuted repeat: counting each
        # key's occurrences took seconds here, one pass takes milliseconds
        frame = Frame(tuple(f"e{i}" for i in range(14)))
        doc = {frame.format_subset(a): 0.0 for a in range(1, frame.full_mask + 1)}
        doc["e1,e0"] = 1.0
        start = time.process_time()
        with pytest.raises(EvidenceError, match=re.escape("duplicate subset 'e0,e1'")):
            MassFunction.from_labels(frame, doc)
        assert time.process_time() - start < 1.0

    @pytest.mark.parametrize("bad", ["0.5", None, b"0.5", True])
    def test_non_number_mass_rejected(self, bad):
        # numpy alone would parse the string and read None as NaN
        frame = Frame(("x", "y"))
        for cls in (MassFunction, PseudoMassFunction):
            with pytest.raises(EvidenceError, match=re.escape(f"mass of 'x' is not a number: {bad!r}")):
                cls(frame, {1: bad, 2: 0.5})

    def test_pseudo_admissibility_flag(self):
        frame = Frame(("x", "y"))
        pseudo = PseudoMassFunction(frame, {1: -0.25, 3: 1.25})
        assert not pseudo.admissible
        assert MassFunction.vacuous(frame).admissible


@st.composite
def mass_vectors(draw):
    """A frame of 1 to 6 elements and a mass vector on it, with 0.0, -0.0 and clamped entries."""
    frame = frame_of_size(draw(st.integers(1, 6)))
    entries = st.sampled_from([0.0, -0.0]) | st.floats(0.01, 1.0)
    weights = draw(st.lists(entries, min_size=frame.n_subsets - 2, max_size=frame.n_subsets - 2))
    vector = np.array([0.0, *weights, draw(st.floats(0.01, 1.0))])
    vector /= vector.sum()
    if frame.size > 1 and draw(st.booleans()):
        # one mass just below 0, which MassFunction clamps, its weight moved to the frame
        clamped = draw(st.integers(1, frame.full_mask - 1))
        vector[-1] += vector[clamped] + 5e-10
        vector[clamped] = -5e-10
    return frame, vector


def construction(cls, frame, masses):
    """What building ``cls`` from ``masses`` gives: its masses and vector, or the error text."""
    try:
        m = cls(frame, masses)
    except EvidenceError as exc:
        return str(exc)
    return dict(m.masses), m.as_array().tolist()


class TestMassVector:
    """A mass vector and the ``{mask: mass}`` mapping of the same entries build the same thing."""

    @given(mass_vectors(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_vector_and_mapping_agree(self, drawn, data):
        frame, vector = drawn
        mask = data.draw(st.integers(1, frame.full_mask))
        broken = {"valid": vector}
        for name, position, value in [
            ("not finite", mask, data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))),
            ("negative", mask, -1e-6),
            ("empty set", 0, 0.5),
        ]:
            broken[name] = vector.copy()
            broken[name][position] = value
        broken["bad sum"] = vector * 0.9
        # the error each broken case names (a negative mass only in MassFunction)
        errors = {"not finite": "is not finite", "negative": "negative mass",
                  "empty set": "the empty set may not carry mass", "bad sum": "must sum to 1"}
        for cls in (MassFunction, PseudoMassFunction):
            for name, case in broken.items():
                mapping = dict(enumerate(case.tolist()))
                outcome = construction(cls, frame, case)
                assert outcome == construction(cls, frame, mapping), (cls, name)
                if name == "valid":
                    assert cls(frame, case) == cls(frame, mapping)
                    masses, arr = outcome
                    assert list(masses) == sorted(masses) and 0.0 not in masses.values()
                    assert arr == [masses.get(i, 0.0) for i in range(frame.n_subsets)]
                elif name != "negative" or cls is MassFunction:
                    assert isinstance(outcome, str) and errors[name] in outcome, (cls, name)

    def test_negative_zero_is_stored_as_zero(self):
        frame = Frame(("x", "y"))
        for masses in ({1: -0.0, 3: 1.0}, [0.0, -0.0, 0.0, 1.0]):
            for cls in (MassFunction, PseudoMassFunction):
                m = cls(frame, masses)
                assert m.masses == {3: 1.0}
                assert not np.signbit(m.as_array()).any()
                text = _dumps({"masses": cli._mass_block(m, [1, 3])})
                assert '"x": 0.0,' in text

    def test_wrong_length_or_kind_rejected(self):
        frame = Frame(("x", "y"))
        bad_vectors = (
            np.ones(3) / 3, np.ones(5) / 4, np.eye(4), np.array(["0", "1", "0", "0"]),
            [False, True, False, False],
        )
        for bad in bad_vectors:
            with pytest.raises(EvidenceError, match="a mass vector must hold 4 reals"):
                MassFunction(frame, bad)

    def test_vector_is_a_read_only_copy(self):
        frame = Frame(("x", "y"))
        vector = np.array([0.0, 0.25, 0.25, 0.5])
        m = MassFunction(frame, vector)
        vector[1] = 0.75
        assert m.as_array()[1] == 0.25 and m.masses == {1: 0.25, 2: 0.25, 3: 0.5}
        arr = m.as_array()
        assert arr is m.as_array()
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 0.0
        assert MassFunction(frame, [0, 0, 0, 1]) == MassFunction.vacuous(frame)


class TestBelief:
    def test_vacuous_belief(self):
        frame = Frame(("x", "y", "z"))
        belief = belief_from_mass(MassFunction.vacuous(frame))
        for mask in range(frame.n_subsets - 1):
            assert belief[mask] == 0.0
        assert belief[frame.full_mask] == 1.0

    def test_running_example_contour(self, ternary):
        pl = contour(ternary)
        assert pl["x"] == pytest.approx(0.6, abs=1e-12)
        assert pl["y"] == pytest.approx(0.8, abs=1e-12)
        assert pl["z"] == pytest.approx(0.3, abs=1e-12)

    def test_belief_matches_naive_double_loop(self, rng):
        # independent oracle: O(4^n) subset-of-subset summation
        frame = frame_of_size(4)
        m = random_mass_function(frame, rng)
        belief = belief_from_mass(m)
        for a in range(frame.n_subsets):
            naive = sum(v for mask, v in m.masses.items() if mask & a == mask)
            assert belief[a] == pytest.approx(naive, abs=1e-12)

    def test_vacuous_contour_all_one(self):
        frame = Frame(("x", "y", "z"))
        assert all(v == 1.0 for v in contour(MassFunction.vacuous(frame)).values())

    def test_contour_matches_duality(self, rng):
        frame = frame_of_size(4)
        for _ in range(20):
            m = random_mass_function(frame, rng)
            belief = belief_from_mass(m)
            for label, value in contour(m).items():
                comp = frame.full_mask ^ frame.singleton(label)
                assert value == pytest.approx(1.0 - belief[comp], abs=1e-12)


class TestMoebiusInversion:
    def test_vacuous_round_trip(self):
        frame = Frame(("x", "y", "z"))
        belief = belief_from_mass(MassFunction.vacuous(frame))
        recovered = PseudoMassFunction(frame, mobius_transform(belief))
        assert recovered.as_array()[frame.full_mask] == 1.0
        assert len(recovered.masses) == 1

    def test_running_example_recovered_exactly(self, ternary):
        recovered = PseudoMassFunction(ternary.frame, mobius_transform(belief_from_mass(ternary)))
        assert masses_close(recovered, ternary, tol=1e-15)
        assert recovered.admissible

    def test_round_trip_many_random(self, rng):
        for i in range(1000):
            frame = frame_of_size(2 + i % 3)
            m = random_mass_function(frame, rng)
            belief = belief_from_mass(m)
            back = belief_from_mass(PseudoMassFunction(frame, mobius_transform(belief)))
            assert np.max(np.abs(back - belief)) < 1e-12

    def test_round_trip_up_to_six_elements(self, rng):
        for size in (5, 6):
            frame = frame_of_size(size)
            for _ in range(50):
                m = random_mass_function(frame, rng)
                belief = belief_from_mass(m)
                back = belief_from_mass(PseudoMassFunction(frame, mobius_transform(belief)))
                assert np.max(np.abs(back - belief)) < 1e-12

    def test_transforms_invert_on_size_six(self, rng):
        values = rng.normal(size=64)
        assert np.max(np.abs(mobius_transform(zeta_transform(values)) - values)) < 1e-12

    def test_transforms_refuse_a_length_that_is_no_power_of_two(self):
        with pytest.raises(ValueError, match="^array length must be a power of two$"):
            zeta_transform(np.ones(3))

    def test_superset_sum_matches_brute_force(self, rng):
        values = rng.normal(size=16)
        sums = superset_sum_transform(values)
        for a in range(16):
            brute = sum(values[c] for c in range(16) if c & a == a)
            assert sums[a] == pytest.approx(brute, abs=1e-12)


class TestCoreAndConsistency:
    def test_nested_focal_elements(self):
        frame = Frame(("x", "y"))
        m = MassFunction.from_labels(frame, {"x": 0.5, "x,y": 0.5})
        assert core_of(m) == frame.singleton("x")

    def test_running_example_core_empty(self, ternary):
        assert core_of(ternary) == 0

    def test_vacuous_core_is_frame(self):
        frame = Frame(("x", "y", "z"))
        m = MassFunction.vacuous(frame)
        assert core_of(m) == frame.full_mask

    def test_partial_l1_result_is_consistent(self, ternary):
        for label in ternary.frame.elements:
            assert core_of(partial_l1_mass(ternary, label).point) != 0

    def test_bayesian_binary_inconsistent(self):
        frame = Frame(("x", "y"))
        m = MassFunction.from_labels(frame, {"x": 0.5, "y": 0.5})
        assert core_of(m) == 0

    def test_core_elements_fully_plausible(self, rng):
        seen = 0
        for _ in range(300):
            frame = frame_of_size(3)
            m = random_mass_function(frame, rng)
            core = core_of(m)
            if core == 0:
                continue
            seen += 1
            pl = contour(m)
            for i, label in enumerate(frame.elements):
                if core >> i & 1:
                    assert pl[label] == pytest.approx(1.0, abs=1e-9)
        assert seen > 0


@given(mass_functions())
@settings(max_examples=80, deadline=None)
def test_plausibility_duality(m):
    # pl(A), the total mass of the sets meeting A, is 1 - b(complement A)
    belief = belief_from_mass(m)
    frame = m.frame
    for a in range(frame.n_subsets):
        plausibility = sum(v for mask, v in m.masses.items() if mask & a)
        assert abs(plausibility + belief[frame.full_mask ^ a] - 1.0) < 1e-12


def contour_by_loop(m):
    """Reference contour: per element, a builtin sum over the masses in dict order."""
    return {
        label: sum((v for mask, v in m.masses.items() if mask >> i & 1), 0.0)
        for i, label in enumerate(m.frame.elements)
    }


@given(mass_functions(max_size=8))
@settings(max_examples=100, deadline=None)
def test_contour_is_the_loop_sum_bit_for_bit(m):
    assert contour(m) == contour_by_loop(m)


@pytest.mark.parametrize("n", [10, 14])
def test_full_support_contour_is_the_loop_sum_bit_for_bit(n):
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    m = random_mass_function(frame, np.random.default_rng(n), full_support=True)
    assert contour(m) == contour_by_loop(m)


@given(mass_functions())
@settings(max_examples=100, deadline=None)
def test_consistency_iff_full_contour(m):
    # x lies in the core exactly when every focal element contains x
    by_core = core_of(m) != 0
    by_contour = max(contour(m).values()) >= 1.0 - 1e-9
    assert by_core == by_contour


@given(mass_functions())
@settings(max_examples=100, deadline=None)
def test_complementary_support_implies_empty_core(m):
    # a supported set contains the core, so a supported complementary pair
    # forces the core into an empty intersection
    belief = belief_from_mass(m)
    frame = m.frame
    has_pair = any(
        belief[a] > 1e-9 and belief[frame.full_mask ^ a] > 1e-9
        for a in range(1, frame.n_subsets)
    )
    if has_pair:
        assert core_of(m) == 0


def test_no_complementary_pair_does_not_imply_consistency():
    # pairwise-intersecting focal elements with an empty triple intersection:
    # every singleton belief is zero, so no complementary pair is supported,
    # yet the core is empty; the converse of the implication above is false
    frame = Frame(("x", "y", "z"))
    m = MassFunction.from_labels(frame, {"x,y": 0.2, "x,z": 0.3, "y,z": 0.4, "x,y,z": 0.1})
    belief = belief_from_mass(m)
    has_pair = any(
        belief[a] > 1e-9 and belief[frame.full_mask ^ a] > 1e-9
        for a in range(1, frame.n_subsets)
    )
    assert not has_pair
    assert core_of(m) == 0


@given(mass_functions())
@settings(max_examples=60, deadline=None)
def test_moebius_round_trip_property(m):
    belief = belief_from_mass(m)
    back = belief_from_mass(PseudoMassFunction(m.frame, mobius_transform(belief)))
    assert np.max(np.abs(back - belief)) < 1e-12
