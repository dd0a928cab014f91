"""The package's value classes keep the semantics of frozen dataclasses.

None of them is a dataclass, since generating a dataclass's methods costs
every CLI process time at import; these tests pin what callers rely on:
frozen fields, value equality where it is used, a hash only where one
exists, construction by keyword and a readable ``repr``.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
from collections.abc import Hashable

import numpy as np
import pytest

import csbf
from csbf import (
    Frame,
    MassFunction,
    PseudoMassFunction,
    Solution,
    SpaceKind,
    brute_force_partial,
    library_global,
    partial_l1_mass,
    partial_linf_belief,
    partial_linf_mass,
)
from csbf.consistent_belief import GammaBox
from csbf.oracle import _categorical_coords_matrix

from conftest import run_python


def package_classes() -> list[type]:
    classes = []
    for info in pkgutil.iter_modules(csbf.__path__):
        module = importlib.import_module(f"csbf.{info.name}")
        classes += [
            obj
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
    return classes


def test_no_package_class_is_a_dataclass():
    classes = package_classes()
    assert {"Frame", "MassFunction", "GammaBox", "OracleReport"} <= {c.__name__ for c in classes}
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_package_holds_exactly_its_five_modules():
    # an installed copy can carry a module left over in build/lib; this lists
    # the package's directory, not only what ``import csbf.cli`` loads
    names = sorted(info.name for info in pkgutil.iter_modules(csbf.__path__))
    assert names == ["cli", "consistent_belief", "consistent_mass", "core", "oracle"]


def test_import_does_not_load_dataclasses():
    code = (
        "import sys, argparse, json, numpy\n"
        "before = 'dataclasses' in sys.modules\n"
        "import csbf.cli\n"
        "assert before or 'dataclasses' not in sys.modules\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'csbf')))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    # the CLI loads the package and four of its modules, and nothing
    # test-only: the oracle loads with the first ``verify``
    assert proc.stdout.decode().split() == [
        "csbf",
        "csbf.cli",
        "csbf.consistent_belief",
        "csbf.consistent_mass",
        "csbf.core",
    ]
    assert all(hasattr(csbf, name) for name in csbf.__all__)
    gone = {
        "BeliefView",
        "EmbeddingSpace",
        "PointVector",
        "SUPPORTED_PAIRS",
        "categorical_inner_product",
        "closed_form_partial",
        "complement",
        "contains",
        "embed",
        "find_global_l1_counterexample",
        "in_box",
        "is_consistent",
        "lemma_alternating_sum",
        "lp_distance",
        "mass_from_belief",
        "midpoint",
        "random_mass_function",
        "value",
    }
    assert gone.isdisjoint(csbf.__all__) and "SpaceKind" in csbf.__all__
    # nor does a module or a class of the package define one of them
    names = (info.name for info in pkgutil.iter_modules(csbf.__path__))
    modules = [importlib.import_module(f"csbf.{name}") for name in names]
    defined = {name for owner in (*modules, *package_classes()) for name in vars(owner)}
    assert gone.isdisjoint(defined), gone & defined


def test_fields_cannot_be_assigned_or_deleted(ternary):
    records = {
        "elements": ternary.frame,
        "masses": ternary,
        "distances": partial_l1_mass(ternary, "x"),
        "point": partial_linf_mass(ternary, "x"),
        "lower": partial_linf_belief(ternary, "x"),
    }
    for field, record in records.items():
        value = getattr(record, field)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, value)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, "other", value)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
        assert getattr(record, field) is value


def test_frame_and_space_are_values():
    a, b = Frame(("x", "y", "z")), Frame(["x", "y", "z"])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Frame(("x", "z", "y"))
    assert SpaceKind("belief") is SpaceKind.BELIEF
    # equal frames share the oracle's cached matrices
    first = _categorical_coords_matrix(a, "x", SpaceKind.BELIEF)
    assert _categorical_coords_matrix(b, "x", SpaceKind.BELIEF) is first


def test_mass_functions_compare_by_class_and_masses(ternary):
    frame = ternary.frame
    m = MassFunction(frame=frame, masses={frame.full_mask: 1.0})
    assert m == MassFunction(frame, {frame.full_mask: 1.0}) == MassFunction.vacuous(frame)
    assert m != PseudoMassFunction(frame, {frame.full_mask: 1.0})
    assert m != ternary
    sol = partial_l1_mass(ternary, "x")
    assert sol == partial_l1_mass(ternary, "x") and sol != partial_l1_mass(ternary, "y")
    assert sol != Solution(sol.focus, sol.point, {2: sol.distances[1]})


def test_keyword_construction(ternary):
    distances = {1: 0.5, 2: 0.25}
    sol = Solution(focus="x", point=ternary, distances=distances)
    assert (sol.focus, sol.point, sol.distances) == ("x", ternary, {1: 0.5, 2: 0.25})
    # the map is a read-only copy
    distances[1] = 9.0
    assert sol.distances[1] == 0.5
    with pytest.raises(TypeError):
        sol.distances[1] = 0.0
    box = GammaBox(
        focus="x", point=ternary, distances={math.inf: 0.5}, members=[1], lower=[0.0], upper=[1.0]
    )
    assert (box.focus, box.point, box.distances) == ("x", ternary, {math.inf: 0.5})
    assert (box.members.tolist(), box.lower.tolist(), box.upper.tolist()) == ([1], [0.0], [1.0])


def test_repr_names_the_fields(ternary):
    frame = Frame(("x", "y"))
    assert repr(MassFunction.vacuous(frame)) == (
        "MassFunction(frame=Frame(elements=('x', 'y')), masses=mappingproxy({3: 1.0}))"
    )
    text = repr(partial_l1_mass(ternary, "y"))
    assert text.startswith(
        "Solution(focus='y', point=MassFunction(frame=Frame(elements=('x', 'y', 'z')), "
    )
    assert text.endswith(", distances=mappingproxy({1: 0.2}))")
    assert repr(partial_linf_mass(ternary, "y")).startswith("ApproxBox(focus='y', point=")


def test_array_records_compare_by_identity(ternary):
    for partial in (partial_linf_mass, partial_linf_belief):
        box, twin = partial(ternary, "x"), partial(ternary, "x")
        assert box == box and box != twin
        assert {box: 1, twin: 2}[box] == 1


def test_records_without_a_value_hash_are_not_hashable(ternary):
    # equal by value, but a read-only map (or a mass function) has no hash
    frame = Frame(("x", "y"))
    records = [
        MassFunction.vacuous(frame),
        PseudoMassFunction(frame, {3: 1.0}),
        partial_l1_mass(ternary, "x"),
        library_global(ternary, 1, SpaceKind.MASS_N2),
        brute_force_partial(ternary, "x", 1, SpaceKind.MASS_N2),
    ]
    for record in records:
        assert not isinstance(record, Hashable), record
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    # frames hash by value, boxes by identity
    hashed = [frame, partial_linf_mass(ternary, "x"), partial_linf_belief(ternary, "x")]
    for record in hashed:
        assert isinstance(record, Hashable) and {record: 1}[record] == 1, record


def test_box_arrays_are_read_only_copies(ternary):
    for box in (partial_linf_mass(ternary, "x"), partial_linf_belief(ternary, "x")):
        assert box.members.dtype == np.int64 and box.lower.dtype == box.upper.dtype == float
        for field in ("members", "lower", "upper"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(box, field)[0] = 0
    members, lower, upper = np.array([1, 3, 5]), np.zeros(3), np.ones(3)
    box = GammaBox("x", ternary, {math.inf: 0.5}, members, lower, upper)
    lower[0] = 9.0
    assert box.lower[0] == 0.0 and lower.flags.writeable
    with pytest.raises(ValueError, match="aligned"):
        GammaBox("x", ternary, {math.inf: 0.5}, members, lower[:2], upper)
