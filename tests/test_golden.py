"""Exact stdout of the CLI on fixed documents, compared byte for byte.

The expected files live in ``tests/golden/``.  To see which JSON fields a
change moves, case by case, without writing anything::

    PYTHONPATH=src python tests/test_golden.py --diff

Regenerate them only when an output change is intended, with::

    PYTHONPATH=src python tests/test_golden.py

``tests/golden/n6.json`` is a seeded six-element document whose masses are
full-precision Dirichlet draws; it is regenerated only if it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import csbf
from csbf.cli import main

from conftest import run_python

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
TERNARY = ROOT.parent / "data" / "ternary.json"
N6 = GOLDEN / "n6.json"
CONSISTENT = ROOT / "fixtures" / "consistent.json"
ZERO_PLAUSIBILITY = ROOT / "fixtures" / "zero_plausibility.json"

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
    # z meets no focal set: its plausibility is 0.0 exactly, never float noise
    out["zero-plausibility-inspect"] = ["inspect", str(ZERO_PLAUSIBILITY)]
    return out


CASES = cases()


def stdout_of(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().encode("utf-8")


def _pointer(path: str, key: str | int) -> str:
    """``path`` extended by one JSON Pointer step (RFC 6901)."""
    return f"{path}/{str(key).replace('~', '~0').replace('/', '~1')}"


def field_diff(old, new, path: str = "") -> list[str]:
    """One line per JSON path added, removed or changed from ``old`` to ``new``.

    Leaves compare by type and value, so 1 and 1.0 differ, and an object
    whose keys only moved is reported as reordered.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in old:
            if key in new:
                lines += field_diff(old[key], new[key], _pointer(path, key))
            else:
                lines.append(f"removed {_pointer(path, key)}: {json.dumps(old[key])}")
        for key in new:
            if key not in old:
                lines.append(f"added {_pointer(path, key)}: {json.dumps(new[key])}")
        if not lines and list(old) != list(new):
            lines.append(f"reordered {path or '/'}: {json.dumps(list(new))}")
        return lines
    if isinstance(old, list) and isinstance(new, list):
        lines = []
        for i in range(max(len(old), len(new))):
            if i >= len(new):
                lines.append(f"removed {_pointer(path, i)}: {json.dumps(old[i])}")
            elif i >= len(old):
                lines.append(f"added {_pointer(path, i)}: {json.dumps(new[i])}")
            else:
                lines += field_diff(old[i], new[i], _pointer(path, i))
        return lines
    if type(old) is type(new) and old == new:
        return []
    return [f"changed {path or '/'}: {json.dumps(old)} -> {json.dumps(new)}"]


def golden_diff(expected: bytes, got: bytes) -> list[str]:
    """The field diff of one case's output ``got`` against its golden bytes."""
    if got == expected:
        return []
    lines = field_diff(json.loads(expected), json.loads(got))
    return lines or ["changed layout only: every field is equal"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    got = stdout_of(CASES[name])
    for line in golden_diff(expected, got):
        print(line)
    assert got == expected


def test_diff_names_each_moved_field_and_writes_nothing(tmp_path):
    for path in GOLDEN.iterdir():
        shutil.copy(path, tmp_path)
    inspect = json.loads((GOLDEN / "ternary-inspect.json").read_bytes())
    inspect["contour"]["x"] = 0.5
    del inspect["core"]
    inspect["belief"]["w"] = 1
    inspect["focal_elements"] = dict(reversed(inspect["focal_elements"].items()))
    (tmp_path / "ternary-inspect.json").write_text(json.dumps(inspect, indent=2) + "\n")
    verify = (GOLDEN / "ternary-verify.json").read_bytes()
    (tmp_path / "ternary-verify.json").write_bytes(verify.replace(b"\n", b"\n ", 1))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    proc = run_python(__file__, "--diff", "--golden", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "ternary-inspect",
        '  reordered /focal_elements: ["x", "y", "x,y", "y,z"]',
        "  removed /belief/w: 1",
        "  changed /contour/x: 0.5 -> 0.6",
        '  added /core: ""',
        "ternary-verify",
        "  changed layout only: every field is equal",
    ]
    assert proc.stderr == b"2 of %d cases differ\n" % len(CASES)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


# The real entry point, ``python -m csbf.cli``: ``cli.entry`` in a fresh
# process, which also freezes the import graph out of the collector and ends
# with ``os._exit``.  Its stdout is buffered whatever the environment says,
# so output left unflushed at that exit would be lost here and seen.


def run_entry(argv: list[str]) -> subprocess.CompletedProcess:
    return run_python("-m", "csbf.cli", *argv, PYTHONUNBUFFERED="")


def test_child_processes_import_the_tested_package():
    proc = run_python("-c", "import csbf; print(csbf.__file__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [csbf.__file__]


# one case per command shape: a global and a focused pick, vertices, inspect, verify
@pytest.mark.parametrize(
    "name",
    [
        "ternary-l1-mass-global",
        "ternary-l1-mass-x",
        "ternary-linf-belief-x-vertices",
        "ternary-inspect",
        "ternary-verify",
    ],
)
def test_entry_point_stdout_matches_golden_bytes(name, tmp_path):
    # and the file written with --out, which the process's fast exit must not cut short
    golden = (GOLDEN / f"{name}.json").read_bytes()
    proc = run_entry(CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden
    out = tmp_path / "out.json"
    proc = run_entry([*CASES[name], "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    assert out.read_bytes() == golden


def test_entry_point_keeps_the_renormalization_warning(tmp_path):
    near = tmp_path / "near.json"
    near.write_text('{"frame": ["x", "y"], "masses": {"x": 0.499999, "x,y": 0.5}}')
    argv = ["inspect", str(near)]
    proc = run_entry(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout_of(argv)
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].endswith("; renormalized"), lines


def test_entry_point_failed_verify_exits_1_with_the_whole_report(monkeypatch):
    # no closed form converges when every oracle distance is 1 too long (a
    # negative TOL would not do: the oracle's engines check their tableaus by it)
    from csbf import oracle  # verify's lazy import, done here so it can be patched

    norm = oracle._lp_norm
    monkeypatch.setattr(oracle, "_lp_norm", lambda diff, p: norm(diff, p) + 1.0)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(CASES["ternary-verify"]) == 1
    code = (
        "import sys\n"
        "import csbf.oracle\n"
        "from csbf.cli import entry\n"
        "norm = csbf.oracle._lp_norm\n"
        "csbf.oracle._lp_norm = lambda diff, p: norm(diff, p) + 1.0\n"
        f"sys.argv = ['csbf', *{CASES['ternary-verify']!r}]\n"
        "entry()\n"
    )
    proc = run_python("-c", code, PYTHONUNBUFFERED="")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == buf.getvalue().encode("utf-8")
    assert json.loads(proc.stdout)["all_ok"] is False


def test_entry_point_oracle_failure_exits_8_with_one_line(monkeypatch, capsys):
    # one pivot is too few for any engine: the failure is one stderr line, not a traceback
    from csbf import oracle

    monkeypatch.setattr(oracle, "LP_MAX_PIVOTS", 1)
    line = "error: the oracle failed: simplex did not finish within 1 pivots\n"
    assert main(CASES["ternary-verify"]) == 8
    assert capsys.readouterr() == ("", line)
    code = (
        "import sys\n"
        "import csbf.oracle\n"
        "from csbf.cli import entry\n"
        "csbf.oracle.LP_MAX_PIVOTS = 1\n"
        f"sys.argv = ['csbf', *{CASES['ternary-verify']!r}]\n"
        "entry()\n"
    )
    proc = run_python("-c", code, PYTHONUNBUFFERED="")
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (8, b"", line)


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
    # buffered, the small output fails at _emit's flush and leaves its bytes
    # in the buffer, which the process's exit drops; the large one fails in
    # the write
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


def test_only_entry_freezes_the_collector(tmp_path):
    before = gc.get_freeze_count()
    stdout_of(CASES["ternary-inspect"])
    assert gc.get_freeze_count() == before
    # os._exit skips atexit hooks, so the child reads the count as it ends
    for argv, exit_code in [
        (["inspect", str(TERNARY), "--out", os.devnull], 0),
        (["inspect", str(tmp_path / "missing.json")], 2),
    ]:
        code = (
            "import gc, os, sys\n"
            "from csbf.cli import entry\n"
            "real_exit = os._exit\n"
            "def hard_exit(code):\n"
            "    print('os._exit', code, gc.get_freeze_count(), file=sys.stderr, flush=True)\n"
            "    real_exit(code)\n"
            "os._exit = hard_exit\n"
            f"sys.argv = ['csbf', *{argv!r}]\n"
            "entry()\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == exit_code, proc.stderr
        lines = proc.stderr.decode().splitlines()
        assert lines and lines[-1].startswith(f"os._exit {exit_code} "), proc.stderr
        assert int(lines[-1].split()[-1]) > 1000


def write_n6() -> None:
    import numpy as np

    from csbf.core import Frame
    from paper_maths import random_mass_function

    frame = Frame(("a", "b", "c", "d", "e", "f"))
    m = random_mass_function(frame, np.random.default_rng(2014), full_support=True)
    doc = {
        "frame": list(frame.elements),
        "masses": {frame.format_subset(mask): v for mask, v in sorted(m.masses.items())},
    }
    N6.write_text(json.dumps(doc, indent=1) + "\n")


def print_diff(golden: Path) -> int:
    """Print each case's field diff against ``golden``; 1 when any case differs."""
    moved = 0
    for name, argv in CASES.items():
        path = golden / f"{name}.json"
        got = stdout_of(argv)
        lines = golden_diff(path.read_bytes(), got) if path.exists() else ["no golden file"]
        if lines:
            moved += 1
            print(name, *(f"  {line}" for line in lines), sep="\n")
    print(f"{moved} of {len(CASES)} cases differ", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the golden files, or diff against them.")
    parser.add_argument("--diff", action="store_true", help="print the moved fields, write nothing")
    parser.add_argument("--golden", type=Path, default=GOLDEN, help="the files --diff reads")
    args = parser.parse_args()
    if args.diff:
        sys.exit(print_diff(args.golden))
    GOLDEN.mkdir(exist_ok=True)
    if not N6.exists():
        write_n6()
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.json").write_bytes(stdout_of(argv))
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
