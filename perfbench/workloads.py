"""Seeded input documents and the round of CLI calls each workload makes.

Documents are drawn with numpy alone, never with ``csbf.sampling``, so a
change to the package cannot change what the benchmark feeds it.  A workload
is a fixed *round* of calls; a run repeats whole rounds, so every run sees
the same mix of calls whatever its length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from check import Expected

#: The seven (norm, space, rep) modes of ``csbf approximate``.
MODES = (
    ("l1", "mass", None),
    ("l2", "mass", "n1"),
    ("l2", "mass", "n2"),
    ("linf", "mass", None),
    ("l1", "belief", None),
    ("l2", "belief", None),
    ("linf", "belief", None),
)


@dataclass(frozen=True, eq=False)
class Doc:
    """One input document: masses on subset bitmasks of ``e0 .. e{n-1}``."""

    name: str
    n: int
    masks: np.ndarray
    masses: np.ndarray

    @property
    def labels(self) -> list[str]:
        return [f"e{i}" for i in range(self.n)]

    def key(self, mask: int) -> str:
        return ",".join(f"e{i}" for i in range(self.n) if mask >> i & 1)

    def text(self) -> str:
        masses = {self.key(int(a)): float(v) for a, v in zip(self.masks, self.masses)}
        return json.dumps({"frame": self.labels, "masses": masses}) + "\n"

    def dense(self) -> np.ndarray:
        """Mass vector indexed by subset mask (length 2^n)."""
        arr = np.zeros(1 << self.n)
        arr[self.masks] = self.masses
        return arr


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  ``mode`` is None for inspect and verify."""

    command: str
    doc: Doc
    mode: tuple[str, str, str | None] | None = None
    focus: str | None = None
    vertices: bool = False

    def argv(self, workdir: Path) -> list[str]:
        args = [self.command, str(workdir / f"{self.doc.name}.json")]
        if self.mode is not None:
            norm, space, rep = self.mode
            args += ["--norm", norm, "--space", space]
            if rep is not None:
                args += ["--rep", rep]
            args += ["--focus", self.focus] if self.focus is not None else ["--global"]
        if self.vertices:
            args.append("--vertices")
        return args

    def label(self) -> str:
        parts = [self.command, f"n={self.doc.n}"]
        if self.mode is not None:
            parts.append("/".join(p for p in self.mode if p))
            parts.append(self.focus or "global")
        if self.vertices:
            parts.append("vertices")
        return " ".join(parts)


def sparse_doc(rng: np.random.Generator, name: str, n: int, focal: int) -> Doc:
    """``focal`` distinct nonempty subsets with Dirichlet(1) masses."""
    masks = np.sort(rng.choice((1 << n) - 1, size=focal, replace=False) + 1)
    return Doc(name, n, masks, rng.dirichlet(np.ones(focal)))


def dense_doc(rng: np.random.Generator, name: str, n: int) -> Doc:
    """Every nonempty subset focal, Dirichlet(1) masses."""
    masks = np.arange(1, 1 << n)
    return Doc(name, n, masks, rng.dirichlet(np.ones(masks.size)))


def unique_optima_doc(draw) -> Doc:
    """Redraw until every mode has a single optimum.

    Each optimum gets its own partial payload, so a tie (frequent for Linf
    in mass coordinates) would multiply a call's output and memory by the
    number of tied elements and make the work per call depend on the seed.
    Ties are covered by the test suite; here they would only add noise.
    """
    while True:
        doc = draw()
        expected = Expected(doc)
        if all(len(expected.optima(mode)) == 1 for mode in MODES):
            return doc


def cli_small(rng: np.random.Generator, sizes=range(3, 9)) -> list[Call]:
    """Startup-bound calls: every mode globally and focused, inspect, vertices."""
    docs = [sparse_doc(rng, f"small-n{n}", n, min(int(rng.integers(3, 9)), (1 << n) - 1)) for n in sizes]
    boxes = [d for d in docs if d.n <= 4]
    calls = [Call("approximate", docs[i % len(docs)], mode) for i, mode in enumerate(MODES)]
    for i, mode in enumerate(MODES):
        doc = docs[(i + 3) % len(docs)]
        calls.append(Call("approximate", doc, mode, focus=doc.labels[i % doc.n]))
    calls += [Call("inspect", docs[i % len(docs)]) for i in (1, 3, 5)]
    for i, mode in enumerate(m for m in MODES if m[0] == "linf"):
        doc = boxes[i % len(boxes)]
        calls.append(Call("approximate", doc, mode, focus=doc.labels[0], vertices=True))
    return calls


def global_dense(rng: np.random.Generator, sizes=(13, 14)) -> list[Call]:
    """Full-support documents: ingest and emit dominate."""
    calls = []
    for n in sizes:
        doc = unique_optima_doc(lambda: dense_doc(rng, f"dense-n{n}", n))
        calls += [Call("approximate", doc, mode) for mode in MODES]
        calls.append(Call("inspect", doc))
    return calls


def global_sparse(rng: np.random.Generator, sizes=(15, 16), focal=64) -> list[Call]:
    """Large frames, few focal elements: selectors and partial payloads dominate."""
    calls = []
    for n in sizes:
        doc = unique_optima_doc(lambda: sparse_doc(rng, f"sparse-n{n}", n, focal))
        calls += [Call("approximate", doc, mode) for mode in MODES]
    return calls


def verify(rng: np.random.Generator, n3_docs=12, n4_docs=1) -> list[Call]:
    """Brute-force oracle runs on small frames."""
    docs = [sparse_doc(rng, f"verify-n3-{i}", 3, int(rng.integers(2, 6))) for i in range(n3_docs)]
    docs += [sparse_doc(rng, f"verify-n4-{i}", 4, int(rng.integers(3, 8))) for i in range(n4_docs)]
    return [Call("verify", doc) for doc in docs]


#: Rounds a timed run makes per ``ROUNDS_SECONDS`` of ``--seconds``.  On the
#: seed code (2-vCPU Xeon VM) that takes about 13, 14, 35 and 40 s; the
#: workloads whose few long calls spread most repeat their round.
ROUNDS = {"cli-small": 2, "global-dense": 1, "global-sparse": 2, "verify": 2}
ROUNDS_SECONDS = 15

WORKLOADS = {
    "cli-small": cli_small,
    "global-dense": global_dense,
    "global-sparse": global_sparse,
    "verify": verify,
}


def build(name: str, seed: int, workdir: Path, **sizes) -> list[Call]:
    """Draw the workload's documents from ``seed`` and write them under ``workdir``."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    calls = WORKLOADS[name](rng, **sizes)
    workdir.mkdir(parents=True, exist_ok=True)
    for doc in {call.doc.name: call.doc for call in calls}.values():
        (workdir / f"{doc.name}.json").write_text(doc.text(), encoding="utf-8")
    return calls
