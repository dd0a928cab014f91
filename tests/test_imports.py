"""What each command loads, and what ``import csbf`` leaves behind.

``import csbf`` loads no csbf module and no numpy: each public name, and
each module that holds one, loads on first use.  Only ``verify`` loads
:mod:`csbf.oracle`.  ``import csbf`` leaves the cyclic collector as the
importer had it.  The tests' exact reference loads the standard library only.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from conftest import run_python
from test_golden import MODES, TERNARY


def test_only_verify_loads_the_oracle():
    ternary = str(TERNARY)
    runs = [["inspect", ternary]]
    runs += [["approximate", ternary, *mode, "--focus", "x"] for mode in MODES.values()]
    runs += [["approximate", ternary, *mode, "--global"] for mode in MODES.values()]
    runs += [["verify", ternary]]
    code = (
        "import contextlib, io, json, sys\n"
        "from csbf.cli import main\n"
        "loaded = []\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    loaded.append('csbf.oracle' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False] * (len(runs) - 1) + [True]


def test_import_loads_each_module_on_first_use():
    names = (
        "import json, sys\n"
        "import csbf\n"
        "bare = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('csbf.'))\n"
        "names = [name for name in csbf.__all__ if name != '__version__']\n"
        "# the first getattr loads the home module the second reads\n"
        "wrong = [name for name in names if getattr(csbf, name)\n"
        "         is not getattr(sys.modules.get('csbf.' + csbf._HOMES[name]), name, None)]\n"
        "try:\n"
        "    csbf.no_such_name\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "print(json.dumps([bare, wrong, unknown]))\n"
    )
    proc = run_python("-c", names)
    assert proc.returncode == 0, proc.stderr
    bare, wrong, unknown = json.loads(proc.stdout)
    assert (bare, wrong) == ([], [])
    assert "no_such_name" in unknown
    # each module resolves from the bare package, before any name loads it
    # (README reads ``csbf.core.TOL``)
    modules = (
        "import sys\n"
        "import csbf\n"
        "homes = ('core', 'consistent_mass', 'consistent_belief', 'oracle')\n"
        "print(all(getattr(csbf, home) is sys.modules['csbf.' + home] for home in homes))\n"
    )
    proc = run_python("-c", modules)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["True"]


@pytest.mark.parametrize("collecting", [True, False])
def test_import_leaves_the_collector_as_it_found_it(collecting):
    code = "import gc\n" + ("" if collecting else "gc.disable()\n")
    code += "import csbf\nprint(gc.isenabled())\n"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == [str(collecting)]


def test_star_import_and_dir_name_every_public_name():
    code = (
        "import json, sys\n"
        "import csbf\n"
        "unlisted = sorted(set(csbf.__all__) - set(dir(csbf)))\n"
        "namespace = {}\n"
        "exec('from csbf import *', namespace)\n"
        "unbound = [name for name in csbf.__all__ if name not in namespace]\n"
        "same = all(namespace[name] is getattr(sys.modules['csbf.' + home], name)\n"
        "           for name, home in csbf._HOMES.items())\n"
        "print(json.dumps([unlisted, unbound, same]))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], True]


def test_reference_imports_only_the_standard_library():
    # the answer checks are independent of the library only while their
    # yardstick shares no code with it: no csbf, no numpy, no relative import
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    names, dynamic = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        if getattr(node, "id", getattr(node, "attr", None)) in ("__import__", "import_module"):
            dynamic.append(ast.unparse(node))
    assert "fractions" in names
    assert [name for name in names if name.split(".")[0] not in sys.stdlib_module_names] == []
    assert dynamic == []
