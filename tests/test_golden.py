"""Exact stdout of the CLI on fixed documents, compared byte for byte.

The expected files live in ``tests/golden/``.  Regenerate them only when an
output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py

``tests/golden/n6.json`` is a seeded six-element document whose masses are
full-precision Dirichlet draws; it is regenerated only if it is missing.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from csbf.cli import main

from conftest import run_python

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
TERNARY = ROOT.parent / "data" / "ternary.json"
N6 = GOLDEN / "n6.json"
CONSISTENT = ROOT / "fixtures" / "consistent.json"

MODES = {
    "l1-mass": ["--norm", "l1", "--space", "mass"],
    "l2-mass-n1": ["--norm", "l2", "--space", "mass", "--rep", "n1"],
    "l2-mass-n2": ["--norm", "l2", "--space", "mass", "--rep", "n2"],
    "linf-mass": ["--norm", "linf", "--space", "mass"],
    "l1-belief": ["--norm", "l1", "--space", "belief"],
    "l2-belief": ["--norm", "l2", "--space", "belief"],
    "linf-belief": ["--norm", "linf", "--space", "belief"],
}


def cases() -> dict[str, list[str]]:
    """Golden file name -> CLI argv."""
    out: dict[str, list[str]] = {}
    ternary = str(TERNARY)
    for name, mode in MODES.items():
        out[f"ternary-{name}-global"] = ["approximate", ternary, *mode, "--global"]
        for x in ("x", "y", "z"):
            out[f"ternary-{name}-{x}"] = ["approximate", ternary, *mode, "--focus", x]
    for name in ("linf-mass", "linf-belief"):
        out[f"ternary-{name}-x-vertices"] = [
            "approximate", ternary, *MODES[name], "--focus", "x", "--vertices"
        ]
    out["ternary-inspect"] = ["inspect", ternary]
    out["ternary-verify"] = ["verify", ternary]
    for name, mode in MODES.items():
        out[f"n6-{name}-global"] = ["approximate", str(N6), *mode, "--global"]
    out["n6-inspect"] = ["inspect", str(N6)]
    # consistent on x: degenerate Linf boxes that no admissibility clip
    # touches, whose gamma bounds are 0.0, not -0.0
    for name in ("linf-mass", "linf-belief"):
        out[f"consistent-{name}-x"] = [
            "approximate", str(CONSISTENT), *MODES[name], "--focus", "x"
        ]
    return out


CASES = cases()


def stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert stdout_of(CASES[name]) == expected


# The real entry point, ``python -m csbf.cli``: ``cli.entry`` in a fresh
# process, which also freezes the import graph out of the collector.


def run_entry(argv: list[str]) -> subprocess.CompletedProcess:
    return run_python("-m", "csbf.cli", *argv)


@pytest.mark.parametrize("name", ["ternary-l1-mass-global", "ternary-verify"])
def test_entry_point_stdout_matches_golden_bytes(name):
    proc = run_entry(CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_entry_point_malformed_document_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"frame": ["x", "y"], "masses": {"x": ')
    proc = run_entry(["inspect", str(bad)])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"error: cannot read input document" in proc.stderr


def test_entry_point_unwritable_out_exits_6(tmp_path):
    proc = run_entry(["inspect", str(TERNARY), "--out", str(tmp_path / "missing" / "out.json")])
    assert proc.returncode == 6
    assert proc.stdout == b""
    assert b"error: cannot write output" in proc.stderr


#: Python statements that point fd 1 at a target every write to fails on
BROKEN_STDOUT = {
    "full-device": "os.dup2(os.open('/dev/full', os.O_WRONLY), 1)",
    "closed-pipe": "r, w = os.pipe(); os.close(r); os.dup2(w, 1)",
}


@pytest.mark.parametrize("target", sorted(BROKEN_STDOUT))
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", ["ternary-l1-mass-global", "n6-inspect"])
def test_entry_point_failed_stdout_exits_6(name, unbuffered, target):
    # buffered, the small output fails at the flush and leaves its bytes in
    # the buffer for the flush at shutdown; the large one fails in the write
    if target == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    code = (
        "import os, sys\n"
        f"{BROKEN_STDOUT[target]}\n"
        "from csbf.cli import entry\n"
        f"sys.argv = ['csbf', *{CASES[name]!r}]\n"
        "entry()\n"
    )
    proc = run_python("-c", code, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr.startswith(b"error: cannot write output: ")
    assert proc.stderr.count(b"\n") == 1, proc.stderr


def test_only_entry_freezes_the_collector():
    before = gc.get_freeze_count()
    stdout_of(CASES["ternary-inspect"])
    assert gc.get_freeze_count() == before
    code = (
        "import atexit, gc, sys\n"
        "from csbf.cli import entry\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['csbf', 'inspect', {str(TERNARY)!r}, '--out', {os.devnull!r}]\n"
        "entry()\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) > 1000


def write_n6() -> None:
    import numpy as np

    from csbf.core import Frame
    from csbf.sampling import random_mass_function

    frame = Frame(("a", "b", "c", "d", "e", "f"))
    m = random_mass_function(frame, np.random.default_rng(2014), full_support=True)
    doc = {
        "frame": list(frame.elements),
        "masses": {frame.format_subset(mask): v for mask, v in sorted(m.masses.items())},
    }
    N6.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    if not N6.exists():
        write_n6()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_bytes(stdout_of(argv))
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
