import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csbf
from csbf import Frame, MassFunction, PseudoMassFunction

TERNARY_MASSES = {"x": 0.2, "y": 0.1, "x,y": 0.4, "y,z": 0.3}

#: One line per acceptance criterion, echoed after the run (see test_acceptance).
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def ternary_frame():
    return Frame(("x", "y", "z"))


@pytest.fixture
def ternary(ternary_frame):
    """The worked ternary example used throughout the suite."""
    return MassFunction.from_labels(ternary_frame, TERNARY_MASSES)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def frame_of_size(n: int) -> Frame:
    labels = ("x", "y", "z", "w", "v", "u", "t", "s")
    return Frame(labels[:n])


def masses_close(a: PseudoMassFunction, b: PseudoMassFunction, tol: float = 1e-12) -> bool:
    """Same frame, and every mass of ``a`` within ``tol`` of ``b``'s; NaN is never close."""
    return a.frame == b.frame and bool((np.abs(a.as_array() - b.as_array()) <= tol).all())


def run_python(*args: str, preexec_fn=None, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` that imports the ``csbf`` this process did.

    The directory holding that package goes first on the child's path: the
    checkout's ``src`` under ``PYTHONPATH=src``, the installed copy otherwise.
    ``env`` adds to or overrides the inherited environment; ``preexec_fn``
    runs in the child before the interpreter starts.
    """
    home = str(Path(csbf.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        timeout=120,
        preexec_fn=preexec_fn,
    )
