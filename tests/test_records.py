"""The package's value classes keep the semantics of frozen dataclasses.

None of them is a dataclass, since generating a dataclass's methods costs
every CLI process time at import; these tests pin what callers rely on:
frozen fields, value equality where it is used, construction by keyword and
a readable ``repr``.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import csbf
from csbf import (
    EmbeddingSpace,
    Frame,
    MassFunction,
    PartialApprox,
    PseudoMassFunction,
    SpaceKind,
    belief_from_mass,
    embed,
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
    # the CLI loads the package and its six modules, and nothing test-only
    assert proc.stdout.decode().split() == [
        "csbf",
        "csbf.cli",
        "csbf.consistent_belief",
        "csbf.consistent_mass",
        "csbf.core",
        "csbf.geometry",
        "csbf.oracle",
    ]
    assert all(hasattr(csbf, name) for name in csbf.__all__)
    moved = {
        "categorical_inner_product",
        "find_global_l1_counterexample",
        "lemma_alternating_sum",
        "random_mass_function",
    }
    assert moved.isdisjoint(csbf.__all__)


def test_fields_cannot_be_assigned_or_deleted(ternary):
    records = {
        "elements": ternary.frame,
        "masses": ternary,
        "distance": partial_l1_mass(ternary, "x"),
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
    space_a, space_b = EmbeddingSpace(SpaceKind.BELIEF, a), EmbeddingSpace(SpaceKind.BELIEF, b)
    assert space_a == space_b and hash(space_a) == hash(space_b)
    assert space_a != EmbeddingSpace(SpaceKind.MASS_N2, a)
    assert space_a != EmbeddingSpace(SpaceKind.BELIEF, Frame(("x", "z", "y")))
    # equal frames share the oracle's cached matrices
    first = _categorical_coords_matrix(a, "x", SpaceKind.BELIEF)
    assert _categorical_coords_matrix(b, "x", SpaceKind.BELIEF) is first


def test_mass_functions_compare_by_class_and_masses(ternary):
    frame = ternary.frame
    m = MassFunction(frame=frame, masses={frame.full_mask: 1.0})
    assert m == MassFunction(frame, {frame.full_mask: 1.0}) == MassFunction.vacuous(frame)
    assert m != PseudoMassFunction(frame, {frame.full_mask: 1.0})
    assert m != ternary
    pa = partial_l1_mass(ternary, "x")
    assert pa == partial_l1_mass(ternary, "x") and pa != partial_l1_mass(ternary, "y")


def test_keyword_construction(ternary):
    frame = ternary.frame
    space = EmbeddingSpace(kind=SpaceKind.MASS_N2, frame=frame)
    pa = PartialApprox(focus="x", result=ternary, distance=0.5, space=space)
    assert (pa.focus, pa.result, pa.distance, pa.space) == ("x", ternary, 0.5, space)


def test_repr_names_the_fields(ternary):
    frame = Frame(("x", "y"))
    assert repr(MassFunction.vacuous(frame)) == (
        "MassFunction(frame=Frame(elements=('x', 'y')), masses=mappingproxy({3: 1.0}))"
    )
    assert repr(EmbeddingSpace(SpaceKind.BELIEF, frame)) == (
        f"EmbeddingSpace(kind={SpaceKind.BELIEF!r}, frame=Frame(elements=('x', 'y')))"
    )
    assert repr(partial_l1_mass(ternary, "y")).startswith(
        "PartialApprox(focus='y', result=MassFunction(frame=Frame(elements=('x', 'y', 'z')), "
    )


def test_array_records_compare_by_identity(ternary):
    a, b = belief_from_mass(ternary), belief_from_mass(ternary)
    assert a == a and a != b
    space = EmbeddingSpace(SpaceKind.BELIEF, ternary.frame)
    u, v = embed(ternary, space), embed(ternary, space)
    assert u == u and u != v
    assert {a: 1, u: 2}[a] == 1
    for partial in (partial_linf_mass, partial_linf_belief):
        box, twin = partial(ternary, "x"), partial(ternary, "x")
        assert box == box and box != twin
        assert {box: 1, twin: 2}[box] == 1


def test_box_arrays_are_read_only_copies(ternary):
    for box in (partial_linf_mass(ternary, "x"), partial_linf_belief(ternary, "x")):
        assert box.members.dtype == np.int64 and box.lower.dtype == box.upper.dtype == float
        for field in ("members", "lower", "upper"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(box, field)[0] = 0
    members, lower, upper = np.array([1, 3, 5]), np.zeros(3), np.ones(3)
    box = GammaBox("x", members, lower, upper, ternary, 0.5)
    lower[0] = 9.0
    assert box.lower[0] == 0.0 and lower.flags.writeable
    with pytest.raises(ValueError, match="aligned"):
        GammaBox("x", members, lower[:2], upper, ternary, 0.5)
