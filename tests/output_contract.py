"""The output contract of every csbf command, as data; stdlib only.

Each command's document is one table: its keys in output order and the kind
of each value.  A kind is

- a leaf: ``STRING``, ``BOOL``, ``STRING_OR_NULL``, ``REAL`` (a
  finite JSON real, never an integer), ``STRINGS`` (a list of strings),
  ``REALS`` (a subset-keyed block of reals) or ``PAIRS`` (a subset-keyed
  block of ``[lo, hi]`` pairs of reals).  A subset key names frame elements
  in frame order, joined by commas;
- a nested :class:`Table`, a JSON object;
- ``ListOf(table)``, a list of payloads, or ``ByElement(table)``, an object
  of payloads keyed by frame elements in frame order;
- ``OneOf(table, ...)``: exactly one of several named forms.

A key that is not always printed names its optional group as a third item:
the keys of a group are printed all together or not at all.  :func:`check`
returns one line per breach, and the names of the forms and groups that the
document used, so a caller can tell them from the flags it passed.
"""

from __future__ import annotations

import math

STRING, BOOL, STRING_OR_NULL, REAL = "string", "bool", "string or null", "real"
STRINGS = "list of strings"
REALS = "subset-keyed block of reals"
PAIRS = "subset-keyed block of [lo, hi] pairs"


class Table:
    """A JSON object: ``(key, kind)`` or ``(key, kind, group)`` fields, in output order."""

    def __init__(self, name: str, *fields: tuple):
        self.name, self.fields = name, fields


class ListOf:
    def __init__(self, item: Table):
        self.item = item


class ByElement:
    def __init__(self, item: OneOf):
        self.item = item


class OneOf:
    def __init__(self, *forms: Table):
        self.forms = forms


INPUT = Table("input", ("frame", STRINGS), ("masses", REALS))
HEAD = (("command", STRING), ("input", INPUT))
POINT = Table("point", ("masses", REALS), ("admissible", BOOL))
VERTICES = ("vertices", ListOf(POINT), "vertices")

# approximate: a point (L1, L2) or a box (Linf) per focus
POINT_PAYLOAD = Table(
    "point payload",
    *POINT.fields,
    ("space", STRING),
    ("distance", REAL),
    # the focused transform (L1 and L2 belief) prints both of its distances
    ("distance_l1", REAL, "both distances"),
    ("distance_l2", REAL, "both distances"),
)
MASS_BOX = Table(
    "mass box",
    ("space", STRING),
    ("distance", REAL),
    ("intervals", PAIRS),
    ("admissible_intervals", PAIRS),
    ("admissible_clipped", BOOL),
    ("barycenter", POINT),
    VERTICES,
)
GAMMA_BOX = Table(
    "gamma box",
    ("space", STRING),
    ("distance", REAL),
    ("gamma_intervals", PAIRS),
    ("barycenter", POINT),
    VERTICES,
)
PAYLOAD = OneOf(POINT_PAYLOAD, MASS_BOX, GAMMA_BOX)
GLOBAL = Table(
    "global",
    ("criterion", REALS),
    ("optima", STRINGS),
    ("partials", ByElement(PAYLOAD)),
)
APPROXIMATE = Table(
    "approximate",
    *HEAD,
    ("norm", STRING),
    ("space", STRING),
    ("rep", STRING_OR_NULL),
    ("focus", STRING),
    ("result", OneOf(*PAYLOAD.forms, GLOBAL)),
)

INSPECT = Table(
    "inspect",
    *HEAD,
    ("focal_elements", REALS),
    ("core", STRING),
    ("consistent", BOOL),
    ("belief", REALS),
    ("plausibility", REALS),
    ("contour", REALS),
)

REPORT = Table(
    "report",
    ("norm", STRING),
    ("space", STRING),
    ("focus", STRING),
    ("oracle_distance", REAL),
    ("closed_form_distance", REAL),
    ("max_gap", REAL),
    ("converged", BOOL),
)
GLOBAL_CHECK = Table(
    "global check",
    ("norm", STRING),
    ("space", STRING),
    ("library_optima", STRINGS),
    ("oracle_distances", REALS),
    ("agree", BOOL),
)
VERIFY = Table(
    "verify",
    *HEAD,
    ("config", Table("config", ("match_tolerance", REAL))),
    ("reports", ListOf(REPORT)),
    ("global_checks", ListOf(GLOBAL_CHECK)),
    ("all_ok", BOOL),
)

COMMANDS = {"approximate": APPROXIMATE, "inspect": INSPECT, "verify": VERIFY}


def _real(value) -> bool:
    return type(value) is float and math.isfinite(value)


def _subset_key(key, frame: list) -> bool:
    """``key`` names distinct frame elements in frame order."""
    if type(key) is not str:
        return False
    at = [frame.index(label) if label in frame else -1 for label in key.split(",")]
    return at[0] >= 0 and all(a < b for a, b in zip(at, at[1:]))


def _block(value, frame: list, entry) -> bool:
    return type(value) is dict and all(
        _subset_key(key, frame) and entry(item) for key, item in value.items()
    )


LEAVES = {
    STRING: lambda value, frame: type(value) is str,
    BOOL: lambda value, frame: type(value) is bool,
    STRING_OR_NULL: lambda value, frame: value is None or type(value) is str,
    REAL: lambda value, frame: _real(value),
    STRINGS: lambda value, frame: type(value) is list and all(type(v) is str for v in value),
    REALS: lambda value, frame: _block(value, frame, _real),
    PAIRS: lambda value, frame: _block(
        value, frame, lambda pair: type(pair) is list and len(pair) == 2 and all(map(_real, pair))
    ),
}


def _check(value, kind, path: str, frame: list, breaches: list, used: set) -> None:
    where = path or "/"
    if isinstance(kind, OneOf):
        misses = []
        for form in kind.forms:
            form_breaches, form_used = [], set()
            _check(value, form, path, frame, form_breaches, form_used)
            if not form_breaches:
                used |= form_used | {form.name}
                return
            misses.append(f"{form.name}: {form_breaches[0]}")
        breaches.append(f"{where}: matches no form ({'; '.join(misses)})")
    elif isinstance(kind, Table):
        if type(value) is not dict:
            breaches.append(f"{where}: {value!r:.60} is not an object")
            return
        present = {field[2] for field in kind.fields if len(field) > 2 and field[0] in value}
        fields = [field for field in kind.fields if len(field) == 2 or field[2] in present]
        keys = [field[0] for field in fields]
        if list(value) != keys:
            breaches.append(f"{where}: keys {list(value)} where {keys} expected")
            return
        used |= present
        for key, item, *_ in fields:
            _check(value[key], item, f"{path}/{key}", frame, breaches, used)
    elif isinstance(kind, ListOf):
        if type(value) is not list:
            breaches.append(f"{where}: {value!r:.60} is not a list")
            return
        for i, item in enumerate(value):
            _check(item, kind.item, f"{path}/{i}", frame, breaches, used)
    elif isinstance(kind, ByElement):
        if not (type(value) is dict and all(_subset_key(key, frame) and "," not in key for key in value)):
            breaches.append(f"{where}: {value!r:.60} is not keyed by frame elements")
            return
        at = [frame.index(key) for key in value]
        if at != sorted(at):
            breaches.append(f"{where}: keys {list(value)} are not in frame order")
        for key, item in value.items():
            _check(item, kind.item, f"{path}/{key}", frame, breaches, used)
    elif not LEAVES[kind](value, frame):
        breaches.append(f"{where}: {value!r:.60} is not a {kind}")


def check(doc) -> tuple[list[str], set[str]]:
    """Breaches of the contract in ``doc``, one line each, and the forms and groups it used.

    Paths are JSON pointers.  Subset keys are checked against the echoed
    ``/input/frame``.
    """
    table = COMMANDS.get(doc.get("command")) if type(doc) is dict else None
    if table is None:
        return [f"/: {doc!r:.60} is no csbf command's document"], set()
    echo = doc.get("input")
    frame = echo.get("frame") if type(echo) is dict else None
    breaches: list[str] = []
    used: set[str] = set()
    _check(doc, table, "", frame if LEAVES[STRINGS](frame, None) else [], breaches, used)
    return breaches, used
