"""Printed reals against exact rational arithmetic.

Masses with two decimals are exact as fractions, and so is every quantity
the Linf belief cell prints.  A printed real is right when it is the 12-digit
text of the exact value rounded once to a double, ``cli._real(float(exact))``;
float noise around an exact 0 and a ``-0.0`` both break that rule.  The
expected values come from the definitions, not from the library:

* barycenter (focused transform) mass of A containing x: ``m(A) + m(A minus x)``;
* gamma bounds of a proper A containing x: ``-+b(x^c) - b(A minus x)``;
* distance and criterion value of x: ``b(x^c)``.

The corners printed by ``--vertices`` are not covered here.
"""

from __future__ import annotations

import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

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


def belief(masses: dict[int, Fraction], subset: int) -> Fraction:
    return sum((v for mask, v in masses.items() if mask & ~subset == 0), Fraction(0))


def outside(frame, masses: dict[int, Fraction], x: str) -> Fraction:
    return belief(masses, frame.full_mask ^ frame.singleton(x))


def box_reals(frame, masses, x, payload) -> list[tuple[str, str, Fraction]]:
    """(what, printed text, exact value) for every printed real of x's gamma box."""
    xbit = frame.singleton(x)
    radius = outside(frame, masses, x)
    printed = [(f"{x} distance", payload["distance"], radius)]
    intervals = payload["gamma_intervals"]
    for key, (lo, hi) in intervals.items():
        inside = belief(masses, frame.parse_subset(key) ^ xbit)
        printed.append((f"{x} lower {key}", lo, -radius - inside))
        printed.append((f"{x} upper {key}", hi, radius - inside))
    barycenter = payload["barycenter"]["masses"]
    for key, text in barycenter.items():
        mask = frame.parse_subset(key)
        exact = masses.get(mask, Fraction(0)) + masses.get(mask ^ xbit, Fraction(0))
        printed.append((f"{x} barycenter {key}", text, exact))
    # every ultrafilter member is printed, the full frame only in the barycenter
    members = 1 << (frame.size - 1)
    assert (len(intervals), len(barycenter)) == (members - 1, members)
    return printed


@given(decimal_documents())
@settings(max_examples=150, deadline=None)
def test_linf_belief_prints_the_exact_values(document):
    frame, masses = document
    doc = {
        "frame": list(frame.elements),
        "masses": {frame.format_subset(mask): float(v) for mask, v in masses.items()},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        run = ["approximate", str(path), *MODES["linf-belief"]]
        # parse_float=str keeps each real's printed text
        outputs = [
            json.loads(stdout_of([*run, *where]), parse_float=str)["result"]
            for where in (["--global"], *(["--focus", x] for x in frame.elements))
        ]
    glob, focused = outputs[0], outputs[1:]
    printed = [
        (f"{x} criterion", text, outside(frame, masses, x)) for x, text in glob["criterion"].items()
    ]
    for x in glob["optima"]:
        printed += box_reals(frame, masses, x, glob["partials"][x])
    for x, payload in zip(frame.elements, focused):
        printed += box_reals(frame, masses, x, payload)
    mismatches = [row for row in printed if row[1] != cli._real(float(row[2]))]
    assert mismatches == [], mismatches
