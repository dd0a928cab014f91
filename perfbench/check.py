"""Independent check of CLI outputs, from the generated masses alone.

Every per-element criterion is recomputed with dense subset transforms read at
the coatoms ``x^c`` (the complement of each singleton), in numpy.  Nothing
here imports ``csbf``: the closed forms are re-derived, not re-used.

* L1 mass      = zeta(m)[x^c]            (mass moved onto the frame)
* L2 mass-n2   = zeta(m^2)[x^c]
* L2 mass-n1   = zeta(m)[x^c]^2 / 2^(n-1) + zeta(m^2)[x^c]
* Linf mass    = submax(m)[x^c]          (largest mass outside the ultrafilter)
* L1 belief    = zeta(zeta(m))[x^c]
* L2 belief    = zeta(b^2)[x^c]          with b = zeta(m)
* Linf belief  = b[x^c]

L2 criteria are squared distances; the attained partial distance is their
square root.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from workloads import Call, Doc

#: Relative agreement required between the CLI and this check.
REL_TOL = 1e-9
#: Absolute floor for values that are zero up to rounding.
ABS_TOL = 1e-12
#: The CLI's default tie tolerance (``CSBF_TOLERANCE``) for collecting optima.
TIE_TOL = 1e-9

#: ``verify`` labels its (norm, space) pairs by embedding; map them to modes.
VERIFY_PAIRS = {
    ("l1", "mass-n2"): ("l1", "mass", None),
    ("l2", "mass-n2"): ("l2", "mass", "n2"),
    ("l2", "mass-n1"): ("l2", "mass", "n1"),
    ("linf", "mass-n2"): ("linf", "mass", None),
    ("l1", "belief"): ("l1", "belief", None),
    ("l2", "belief"): ("l2", "belief", None),
    ("linf", "belief"): ("linf", "belief", None),
}


def _lattice_pass(values: np.ndarray, combine) -> np.ndarray:
    out = np.array(values, dtype=float)
    n = out.size.bit_length() - 1
    for i in range(n):
        v = out.reshape(-1, 2, 1 << i)
        combine(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return out


def zeta(values: np.ndarray) -> np.ndarray:
    """out[A] = sum of values[B] over subsets B of A."""
    return _lattice_pass(values, np.add)


def submax(values: np.ndarray) -> np.ndarray:
    """out[A] = max of values[B] over subsets B of A."""
    return _lattice_pass(values, np.maximum)


class Expected:
    """Criteria, optima and belief table of one document."""

    def __init__(self, doc: Doc):
        n = doc.n
        m = doc.dense()
        full = (1 << n) - 1
        coatoms = full ^ (1 << np.arange(n))
        b = zeta(m)
        moved = b[coatoms]
        squares = zeta(m * m)[coatoms]
        self.doc = doc
        self.belief = b
        self.criterion = {
            ("l1", "mass", None): moved,
            ("l2", "mass", "n2"): squares,
            ("l2", "mass", "n1"): moved * moved / (1 << (n - 1)) + squares,
            ("linf", "mass", None): submax(m)[coatoms],
            ("l1", "belief", None): zeta(b)[coatoms],
            ("l2", "belief", None): zeta(b * b)[coatoms],
            ("linf", "belief", None): moved,
        }

    def distance(self, mode, i: int) -> float:
        value = float(self.criterion[mode][i])
        return math.sqrt(value) if mode[0] == "l2" else value

    def optima(self, mode) -> list[str]:
        crit = self.criterion[mode]
        best = crit.min()
        return [lbl for lbl, v in zip(self.doc.labels, crit) if v <= best + TIE_TOL]

    def mask(self, key: str) -> int:
        return sum(1 << int(lbl[1:]) for lbl in key.split(","))


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _close(got, want: float) -> bool:
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    )


def check(call: Call, expected: Expected, returncode: int, stdout: bytes) -> list[str]:
    """Problems with one CLI call's result; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    try:
        if call.command == "approximate":
            return _check_approximate(call, expected, doc["result"])
        if call.command == "inspect":
            return _check_inspect(expected, doc)
        return _check_verify(expected, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_approximate(call: Call, expected: Expected, result: dict) -> list[str]:
    mode, labels = call.mode, expected.doc.labels
    if call.focus is not None:
        i = labels.index(call.focus)
        problems = []
        if not _close(result["distance"], expected.distance(mode, i)):
            problems.append(f"distance {result['distance']!r} != {expected.distance(mode, i)!r}")
        if call.vertices:
            corners = 1 << ((1 << (expected.doc.n - 1)) - 1)
            if len(result["vertices"]) != corners:
                problems.append(f"{len(result['vertices'])} vertices, expected {corners}")
        return problems
    problems = []
    crit = result["criterion"]
    if list(crit) != labels:
        return [f"criterion covers {list(crit)}, expected {labels}"]
    for i, lbl in enumerate(labels):
        want = float(expected.criterion[mode][i])
        if not _close(crit[lbl], want):
            problems.append(f"criterion[{lbl}] = {crit[lbl]!r}, expected {want!r}")
    optima = expected.optima(mode)
    if result["optima"] != optima:
        problems.append(f"optima {result['optima']} != {optima}")
    if list(result["partials"]) != result["optima"]:
        problems.append("partials do not match optima")
    for lbl, partial in result["partials"].items():
        want = expected.distance(mode, labels.index(lbl))
        if not _close(partial["distance"], want):
            problems.append(f"partial {lbl} distance {partial['distance']!r} != {want!r}")
    return problems


def _check_inspect(expected: Expected, doc: dict) -> list[str]:
    b = expected.belief
    full = b.size - 1
    problems = []
    if len(doc["belief"]) != full or len(doc["plausibility"]) != full:
        problems.append("belief/plausibility tables do not cover every nonempty subset")
    for key, value in doc["belief"].items():
        if not _close(value, float(b[expected.mask(key)])):
            problems.append(f"belief[{key}] = {value!r}")
    for key, value in doc["plausibility"].items():
        if not _close(value, 1.0 - float(b[full ^ expected.mask(key)])):
            problems.append(f"plausibility[{key}] = {value!r}")
    core = full
    for mask in expected.doc.masks:
        core &= int(mask)
    if doc["consistent"] is not (core != 0):
        problems.append(f"consistent = {doc['consistent']!r}")
    return problems[:5]


def _check_verify(expected: Expected, doc: dict) -> list[str]:
    problems = [] if doc["all_ok"] is True else ["verify reports all_ok false"]
    labels = expected.doc.labels
    for rep in doc["reports"]:
        mode = VERIFY_PAIRS[(rep["norm"], rep["space"])]
        want = expected.distance(mode, labels.index(rep["focus"]))
        if not _close(rep["closed_form_distance"], want):
            problems.append(f"{rep['norm']}/{rep['space']} {rep['focus']}: distance {want!r} expected")
    for chk in doc["global_checks"]:
        mode = VERIFY_PAIRS[(chk["norm"], chk["space"])]
        if chk["library_optima"] != expected.optima(mode):
            problems.append(f"{chk['norm']}/{chk['space']}: optima {chk['library_optima']}")
    if len(doc["global_checks"]) != len(VERIFY_PAIRS):
        problems.append("verify did not check every (norm, space) pair")
    return problems
