"""What each command loads, and what ``import csbf`` leaves behind.

Only ``verify`` loads :mod:`csbf.oracle`; the package's oracle names resolve
on first use.  ``import csbf`` leaves the cyclic collector as the importer
had it.
"""

import json

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
        "oracle = getattr(csbf, 'oracle', None)\n"
        "same = all(namespace[name] is getattr(oracle, name) for name in\n"
        "           ('FrameTooLargeError', 'OracleReport', 'brute_force_partial', 'library_global'))\n"
        "print(json.dumps([unlisted, unbound, same]))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], True]
