"""Spans around calls into the package's public functions, installed from outside.

Each function is wrapped at every module attribute the package calls it
through, so nested calls form parent/child spans.  A hooked name that no
longer exists (say, after the dispatch moved) makes its metric *absent*:
it is reported with the missing names, never as a crash or a zero.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

CLI, ORACLE = "csbf.cli", "csbf.oracle"
MASS, BELIEF = "csbf.consistent_mass", "csbf.consistent_belief"


def _sites(names: tuple[str, ...], *modules: str) -> list[tuple[str, str]]:
    return [(module, name) for name in names for module in modules]


_MASS_GLOBALS = ("global_l1_mass", "global_l2_mass", "global_linf_mass")
_BELIEF_GLOBALS = ("global_l1_belief", "global_l2_belief", "global_linf_belief")

#: Layer span name -> (module, attribute) sites.  Each function's home module
#: is listed because the package's own internal calls go through it.
HOOKS: dict[str, list[tuple[str, str]]] = {
    "cli.command": [(CLI, "main")],
    "cli.load_input": [(CLI, "load_input")],
    "core.belief_from_mass": _sites(("belief_from_mass",), "csbf.core", CLI, BELIEF),
    "consistent_mass.select": _sites(_MASS_GLOBALS, MASS, CLI, ORACLE),
    "consistent_belief.select": _sites(_BELIEF_GLOBALS, BELIEF, CLI, ORACLE),
    "consistent_mass.partial": _sites(
        ("partial_l1_mass", "partial_l2_mass", "partial_linf_mass"), MASS, CLI, ORACLE
    ),
    "consistent_belief.focused_transform": _sites(("focused_transform",), BELIEF, CLI, ORACLE),
    "consistent_belief.partial_linf_belief": _sites(("partial_linf_belief",), BELIEF, CLI, ORACLE),
    "consistent_belief.gamma_to_mass": _sites(("gamma_to_mass",), BELIEF, CLI),
    "oracle.brute_force_partial": _sites(("brute_force_partial",), ORACLE, CLI),
    "oracle.library_global": _sites(("library_global",), ORACLE, CLI),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    command: int  # which CLI call of the pass the span belongs to


class Tracer:
    """Keeps spans in memory; ``installed()`` patches the hooks in and out."""

    def __init__(self, hooks: dict[str, list[tuple[str, str]]] = HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.absent: dict[str, list[str]] = {}
        self.command = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(Span(name, perf_counter(), 0.0, parent, self.command))
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = perf_counter()

        return traced

    @contextmanager
    def installed(self):
        patched = []
        try:
            for name, sites in self.hooks.items():
                missing = [f"{mod}.{attr}" for mod, attr in sites if not _has(mod, attr)]
                if missing:
                    self.absent[name] = missing
                    continue
                wrappers = {}
                for mod, attr in sites:
                    module = importlib.import_module(mod)
                    fn = getattr(module, attr)
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(name, fn)
                    patched.append((module, attr, fn))
                    setattr(module, attr, wrappers[id(fn)])
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"absent": self.absent, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (seconds not nested in a span of the same name, calls)."""
        totals = {name: [0.0, 0] for name in self.hooks if name not in self.absent}
        for span in self.spans:
            entry = totals[span.name]
            entry[1] += 1
            if not self._inside(span, span.name):
                entry[0] += span.end - span.start
        return {name: (s, c) for name, (s, c) in totals.items()}

    def self_seconds(self, name: str) -> float:
        """Duration of the spans called ``name`` minus what their children cover."""
        covered = {i for i, s in enumerate(self.spans) if s.name == name}
        total = sum(self.spans[i].end - self.spans[i].start for i in covered)
        for span in self.spans:
            if span.parent in covered:
                total -= span.end - span.start
        return total

    def _inside(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False


def _has(module: str, attr: str) -> bool:
    try:
        return hasattr(importlib.import_module(module), attr)
    except ImportError:
        return False
