"""Printed reals against exact rational arithmetic.

Masses with two decimals are exact as fractions, and so is every quantity
the Linf belief cell prints.  A printed real is right when it is the 12-digit
text of the exact value rounded once to a double, ``cli._real(float(exact))``;
float noise around an exact 0 and a ``-0.0`` both break that rule.  The
expected values are :mod:`reference`'s, read from the focal sets, not from
the library: the criterion and distance b(x^c), the gamma bounds and the
barycenter, the focused transform.

Two fixed documents pin the corners printed by ``--vertices``, which the
reference does not model.  Corner i has signs s, ``s_A = +1`` where bit j of
i picks the upper bound of the j-th member A; the expected masses are

* Linf mass: the barycenter's ``m(A) + s_A M`` on a member, with M the
  largest mass outside the ultrafilter, and ``m(frame) + b(x^c) - M sum(s)``
  on the full frame;
* Linf belief: the focused mass of A minus the Moebius sum
  ``sum over x in B subset of A of (-1)^|A minus B| s_B b(x^c)``, with
  ``s_frame = 0``.

On random documents a printed corner can still show float noise around an
exact 0, so only these two are checked.
"""

from __future__ import annotations

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from csbf import cli

from conftest import frame_of_size
from test_golden import MODES, stdout_of


@st.composite
def decimal_documents(draw):
    """A frame of 2..6 elements and two-decimal masses, as exact fractions, on up to 12 sets."""
    frame = frame_of_size(draw(st.integers(2, 6)))
    masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=12, unique=True))
    cuts = draw(
        st.lists(st.integers(1, 99), min_size=len(masks) - 1, max_size=len(masks) - 1, unique=True)
    )
    edges = [0, *sorted(cuts), 100]
    return frame, {mask: Fraction(hi - lo, 100) for mask, lo, hi in zip(masks, edges, edges[1:])}


LINF_MASS, LINF_BELIEF = (math.inf, "mass-n2"), (math.inf, "belief")


def box_reals(frame, masses, x, payload) -> list[tuple[str, str, Fraction]]:
    """(what, printed text, exact value) for every printed real of x's gamma box."""
    n, i = frame.size, frame.elements.index(x)
    radius = reference.criteria(n, masses)[LINF_BELIEF][i]
    printed = [(f"{x} distance", payload["distance"], radius)]
    ends = reference.bounds(n, masses, LINF_BELIEF, i)
    intervals = payload["gamma_intervals"]
    for key, (lo, hi) in intervals.items():
        exact_lo, exact_hi = ends[frame.parse_subset(key)]
        printed.append((f"{x} lower {key}", lo, exact_lo))
        printed.append((f"{x} upper {key}", hi, exact_hi))
    point = reference.point(n, masses, LINF_BELIEF, i)
    barycenter = payload["barycenter"]["masses"]
    for key, text in barycenter.items():
        printed.append((f"{x} barycenter {key}", text, point[frame.parse_subset(key)]))
    # every ultrafilter member is printed, the full frame only in the barycenter
    assert (len(intervals), len(barycenter)) == (len(ends), len(point))
    return printed


def results(frame, masses: dict[int, Fraction], mode: str, wheres: list[list[str]]) -> list:
    """The ``result`` of ``approximate`` in ``mode`` for each of ``wheres``, reals as printed."""
    doc = {
        "frame": list(frame.elements),
        "masses": {frame.format_subset(mask): float(v) for mask, v in masses.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        run = ["approximate", str(path), *MODES[mode]]
        # parse_float=str keeps each real's printed text
        return [json.loads(stdout_of([*run, *where]), parse_float=str)["result"] for where in wheres]


@given(decimal_documents())
@settings(max_examples=150, deadline=None)
def test_linf_belief_prints_the_exact_values(document):
    frame, masses = document
    wheres = [["--global"], *(["--focus", x] for x in frame.elements)]
    outputs = results(frame, masses, "linf-belief", wheres)
    glob, focused = outputs[0], outputs[1:]
    exact = dict(zip(frame.elements, reference.criteria(frame.size, masses)[LINF_BELIEF]))
    printed = [(f"{x} criterion", text, exact[x]) for x, text in glob["criterion"].items()]
    for x in glob["optima"]:
        printed += box_reals(frame, masses, x, glob["partials"][x])
    for x, payload in zip(frame.elements, focused):
        printed += box_reals(frame, masses, x, payload)
    mismatches = [row for row in printed if row[1] != cli._real(float(row[2]))]
    assert mismatches == [], mismatches


def mass_corner(frame, masses, x, signs: dict[int, int]) -> dict[int, Fraction]:
    n, i = frame.size, frame.elements.index(x)
    largest = reference.criteria(n, masses)[LINF_MASS][i]
    corner = reference.point(n, masses, LINF_MASS, i)  # the barycenter, b(x^c) on the frame
    for a, s in signs.items():
        corner[a] += s * largest
    corner[frame.full_mask] -= largest * sum(signs.values())
    return corner


def gamma_corner(frame, masses, x, signs: dict[int, int]) -> dict[int, Fraction]:
    n, i = frame.size, frame.elements.index(x)
    radius = reference.criteria(n, masses)[LINF_BELIEF][i]
    corner = reference.point(n, masses, LINF_BELIEF, i)  # the focused transform
    offsets = {**signs, frame.full_mask: 0}
    for a in offsets:
        corner[a] -= sum(
            (-1) ** bin(a ^ b).count("1") * s * radius for b, s in offsets.items() if b & ~a == 0
        )
    return corner


#: (mode, masses, exact corner) of documents on (x, y, z) whose corners on x
#: once printed ``1.11022302463e-16`` and ``-1.11022302463e-16`` for an exact 0.0
CORNER_DOCUMENTS = {
    "mass": ("linf-mass", {"x": "0.6", "z": "0.4"}, mass_corner),
    "belief": ("linf-belief", {"y": "0.3", "x,y": "0.1", "y,z": "0.3", "x,y,z": "0.3"}, gamma_corner),
}


@pytest.mark.parametrize("name", sorted(CORNER_DOCUMENTS))
def test_fixed_documents_print_exact_corners(name):
    mode, labelled, corner_of = CORNER_DOCUMENTS[name]
    frame = frame_of_size(3)
    masses = {frame.parse_subset(key): Fraction(v) for key, v in labelled.items()}
    (payload,) = results(frame, masses, mode, [["--focus", "x", "--vertices"]])
    members = [frame.parse_subset(key) for key in payload["barycenter"]["masses"]][:-1]
    vertices = payload["vertices"]
    assert len(vertices) == 1 << len(members) == 8
    printed = []
    for i, vertex in enumerate(vertices):
        signs = {a: 1 if i >> j & 1 else -1 for j, a in enumerate(members)}
        exact = corner_of(frame, masses, "x", signs)
        for key, text in vertex["masses"].items():
            printed.append((f"corner {i} {key}", text, exact[frame.parse_subset(key)]))
    assert len(printed) == 8 * 4
    mismatches = [row for row in printed if row[1] != cli._real(float(row[2]))]
    assert mismatches == [], mismatches
