"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import run
import workloads

#: Each workload shrunk to a few cheap calls.
TINY = {
    "cli-small": {"sizes": (3, 4)},
    "global-dense": {"sizes": (4,)},
    "global-sparse": {"sizes": (6,), "focal": 8},
    "verify": {"n3_docs": 1, "n4_docs": 0},
}


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "TAIL_CALLS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path, quick):
    calls = workloads.build(name, 7, tmp_path, **TINY[name])
    metrics, report, outcomes = run.run_e2e(calls, tmp_path, run.rounds_for(name, 0.0, calls))
    assert outcomes.problems == []
    assert outcomes.failed == 0 and outcomes.attempted >= len(calls)
    assert report["failed_frac"] == 0.0
    assert all(value > 0 for value, _ in metrics.values())

    layers, _, traced = run.run_traced(calls, tmp_path, 0.0, tmp_path / "spans.json")
    assert traced.failed == 0
    assert not [name for name, entry in layers.items() if entry[0] is None]
    assert layers["cli.command.calls"][0] == len(calls)
    # In-process and fresh-process calls print the same bytes.
    assert traced.digest() == outcomes.digest()


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.build("global-sparse", 3, tmp_path / "a", **TINY["global-sparse"])
    again = workloads.build("global-sparse", 3, tmp_path / "b", **TINY["global-sparse"])
    other = workloads.build("global-sparse", 4, tmp_path / "c", **TINY["global-sparse"])
    assert [c.doc.text() for c in first] == [c.doc.text() for c in again]
    assert first[0].doc.text() != other[0].doc.text()


def _cli_output(call: workloads.Call, workdir) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "csbf.cli", *call.argv(workdir)],
        env=run.child_env(), capture_output=True, check=True,
    )
    return json.loads(proc.stdout)


def _wrong_optimum(doc):
    result = doc["result"]
    result["optima"] = [lbl for lbl in result["criterion"] if lbl not in result["optima"]][:1]


def _wrong_criterion(doc):
    crit = doc["result"]["criterion"]
    first = next(iter(crit))
    crit[first] = crit[first] * (1 + 1e-6) + 1e-6


@pytest.mark.parametrize("tamper", [_wrong_optimum, _wrong_criterion])
@pytest.mark.parametrize("mode", workloads.MODES)
def test_checker_catches_a_wrong_answer(tamper, mode, tmp_path):
    doc = workloads.sparse_doc(np.random.default_rng(5), "doc", 5, 6)
    (tmp_path / "doc.json").write_text(doc.text())
    call = workloads.Call("approximate", doc, mode)
    expected = check.Expected(doc)
    out = _cli_output(call, tmp_path)
    assert check.check(call, expected, 0, json.dumps(out).encode()) == []
    tamper(out)
    assert check.check(call, expected, 0, json.dumps(out).encode()) != []


def test_checker_rejects_non_strict_json_and_bad_exit_codes(tmp_path):
    doc = workloads.sparse_doc(np.random.default_rng(5), "doc", 3, 3)
    call = workloads.Call("approximate", doc, workloads.MODES[0])
    expected = check.Expected(doc)
    assert check.check(call, expected, 0, b'{"result": NaN}') != []
    assert check.check(call, expected, 2, b"") == ["exit code 2"]


def test_missing_hook_is_reported_absent(tmp_path, quick, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import csbf.consistent_belief

    monkeypatch.delattr(csbf.consistent_belief, "gamma_to_mass")
    calls = workloads.build("global-sparse", 7, tmp_path, **TINY["global-sparse"])
    layers, _, outcomes = run.run_traced(calls, tmp_path, 0.0, tmp_path / "spans.json")
    assert outcomes.failed == 0
    missing = ["csbf.consistent_belief.gamma_to_mass"]
    assert layers["consistent_belief.gamma_to_mass.s"] == (None, "s", missing)
    assert layers["consistent_belief.gamma_to_mass.calls"] == (None, "count", missing)
    assert layers["cli.command.self_s"] == (None, "s", missing)
    assert layers["consistent_belief.select.s"][0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
