"""Benchmark of the ``csbf`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs real ``python -m csbf.cli`` calls in fresh processes, in a
closed loop with one client (each call starts after the last one exits),
repeating the workload's round of calls a fixed number of times sized to
``S`` seconds (see ``rounds_for``), and prints the end-to-end metrics.
``--trace 1`` runs the same calls in this process through ``csbf.cli.main``,
each once untraced and once with spans installed (see ``spans.py``), and
prints the per-layer metrics.  Every output is checked by ``check.py``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a report with the stdout digest, input sizes, the
tail percentile and the environment.  The package is taken from ``src/``
next to this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh interpreters timed for each startup floor of a traced run.
SETUP_REPS = 7
#: ``import csbf`` probes per round of a timed run, spread over the round so
#: that ``setup_s`` samples the machine over the whole run like the calls do.
SETUP_PROBES_PER_ROUND = 6
#: Wall time of a bare interpreter start (``python -c pass``) on the 2-vCPU
#: Xeon VM the benchmark was tuned on.  That machine's speed drifts by up to
#: a third within minutes (other tenants), so a timed run also probes a bare
#: start between calls, at most every ``REFERENCE_EVERY_S``, and scales each
#: time by ``REFERENCE_START_S`` over the median probe within
#: ``REFERENCE_WINDOW_S`` of it.  The raw figures are in the report line.
#: The probe runs without ``src`` on its path, so no change to the package
#: can move it.
REFERENCE_START_S = 0.05
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 3.0
#: ``call_tail_s`` is the highest percentile with this many calls above it.
TAIL_CALLS = 10
#: No single call may take longer; the run must end well inside 180 s.
CALL_TIMEOUT_S = 60
#: Start no new call after this long, whatever the workload.
HARD_STOP_S = 120

STARTED = perf_counter()


def out_of_time(limit: float = HARD_STOP_S) -> bool:
    return perf_counter() - STARTED > limit


def child_env() -> dict[str, str]:
    # One BLAS thread: on a two-core machine idle BLAS workers spinning next
    # to the call being timed only add noise.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CSBF_TOLERANCE", None)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[float, float, int, bytes]:
    """Wall seconds, CPU seconds, exit code and stdout of one child process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=CALL_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = -1, b""
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, code, out


def probe_seconds(code: str, env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter running ``code``; it must succeed."""
    wall, _, status, _ = run_child([sys.executable, "-c", code], env)
    if status != 0:
        raise SystemExit(f"error: python -c {code!r} exited with {status}")
    return wall


def median_probe_seconds(code: str, env: dict[str, str]) -> float:
    """Median of ``SETUP_REPS`` probes, after one warm-up."""
    return statistics.median([probe_seconds(code, env) for _ in range(SETUP_REPS + 1)][1:])


class Outcomes:
    """Checks each call's (exit code, stdout) once; repeats must be byte-identical."""

    def __init__(self, calls: list[workloads.Call]):
        self.calls = calls
        self.expected = {c.doc.name: check.Expected(c.doc) for c in calls}
        self.first: list[tuple[int, bytes] | None] = [None] * len(calls)
        self.verdicts: list[list[str]] = [[] for _ in calls]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, i: int, returncode: int, stdout: bytes) -> None:
        self.attempted += 1
        call = self.calls[i]
        if self.first[i] is None:
            self.first[i] = (returncode, stdout)
            self.verdicts[i] = check.check(call, self.expected[call.doc.name], returncode, stdout)
            problems = self.verdicts[i]
        elif self.first[i] != (returncode, stdout):
            problems = ["output differs from the first run of this call"]
        else:
            problems = self.verdicts[i]
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{call.label()}: {'; '.join(problems[:3])}")

    def digest(self) -> str:
        h = hashlib.sha256()
        for _, out in filter(None, self.first):
            h.update(len(out).to_bytes(8, "big"))
            h.update(out)
        return h.hexdigest()


def rounds_for(workload: str, seconds: float, calls: list) -> int:
    """``workloads.ROUNDS`` scaled to ``seconds``, with more than ``TAIL_CALLS`` calls.

    A fixed count per workload keeps the number of calls, and so the
    percentile that ``call_tail_s`` reads, the same in every run.
    """
    return max(round(workloads.ROUNDS[workload] * seconds / workloads.ROUNDS_SECONDS),
               math.ceil((TAIL_CALLS + 1) / len(calls)))


def summarise(setup: list[float], walls: list[float], cpus: list[float]) -> dict[str, float]:
    n = len(walls)
    return {
        "setup_s": statistics.median(setup),
        "call_p50_s": statistics.median(walls),
        "call_tail_s": sorted(walls)[max(0, n - TAIL_CALLS - 1)],
        "calls_per_s": n / sum(walls),
        "cpu_per_call_s": sum(cpus) / n,
    }


UNITS = {"setup_s": "s", "call_p50_s": "s", "call_tail_s": "s", "calls_per_s": "1/s", "cpu_per_call_s": "s"}


def run_e2e(calls, workdir: Path, rounds: int) -> tuple[dict, dict, Outcomes]:
    env = child_env()
    ref_env = {k: v for k, v in env.items() if k != "PYTHONPATH"}

    def argv(call):
        return [sys.executable, "-m", "csbf.cli", *call.argv(workdir)]

    # Warm the page cache and bytecode before timing.
    probe_seconds("import csbf", env)
    run_child(argv(calls[0]), env)
    probe_every = -(-len(calls) // SETUP_PROBES_PER_ROUND)
    outcomes = Outcomes(calls)
    reference: list[tuple[float, float]] = []  # (when, wall) of bare starts
    setup: list[tuple[float, float]] = []  # (when, wall) of ``import csbf``
    timed: list[tuple[float, float, float]] = []  # (when, wall, cpu) of calls
    for _ in range(rounds):
        for i, call in enumerate(calls):
            if out_of_time():
                break
            if not reference or perf_counter() - reference[-1][0] >= REFERENCE_EVERY_S:
                reference.append((perf_counter(), probe_seconds("pass", ref_env)))
            if i % probe_every == 0:
                setup.append((perf_counter(), probe_seconds("import csbf", env)))
            when = perf_counter()
            wall, cpu, code, out = run_child(argv(call), env)
            timed.append((when, wall, cpu))
            outcomes.record(i, code, out)
    reference.append((perf_counter(), probe_seconds("pass", ref_env)))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def scale(when: float, wall: float) -> float:
        near = [w for t, w in reference if when - REFERENCE_WINDOW_S <= t <= when + wall + REFERENCE_WINDOW_S]
        return REFERENCE_START_S / statistics.median(near)

    raw = summarise([w for _, w in setup], [w for _, w, _ in timed], [c for _, _, c in timed])
    scaled = summarise(
        [w * scale(t, w) for t, w in setup],
        [w * scale(t, w) for t, w, _ in timed],
        [c * scale(t, w) for t, w, c in timed],
    )
    metrics = {name: (value, UNITS[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    n = len(timed)
    report = {
        "rounds": rounds,
        "calls": n,
        "setup_probes": len(setup),
        "reference_probes": len(reference),
        "reference_start_s": statistics.median(w for _, w in reference),
        "raw": raw,
        "call_tail_percentile": round(100.0 * max(1, n - TAIL_CALLS) / n, 2),
        "failed_frac": outcomes.failed / max(1, outcomes.attempted),
    }
    return metrics, report, outcomes


def call_in_process(cli, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call; keep measuring the rest
            out.write(traceback.format_exc())
            code = -1
    return code, out.getvalue().encode()


def run_traced(calls, workdir: Path, seconds: float, spans_path: Path) -> tuple[dict, dict, Outcomes]:
    env = child_env()
    python_s = median_probe_seconds("pass", env)
    numpy_s = median_probe_seconds("import numpy", env)

    sys.path.insert(0, str(SRC))
    import csbf.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported csbf from {cli.__file__}, not from {SRC}")

    tracer = spans.Tracer()
    outcomes = Outcomes(calls)

    # Each call runs once untraced and once traced, the order alternating
    # from call to call so that warming up favours neither side.
    call_in_process(cli, calls[0].argv(workdir))
    seconds_by_side = {False: 0.0, True: 0.0}
    passes = 0
    start = perf_counter()
    while passes == 0 or (perf_counter() - start < seconds and not out_of_time(HARD_STOP_S / 2)):
        passes += 1
        results = []
        for i, call in enumerate(calls):
            tracer.command = i
            for traced in (False, True) if (i + passes) % 2 else (True, False):
                with tracer.installed() if traced else contextlib.nullcontext():
                    t0 = perf_counter()
                    results.append((i, call_in_process(cli, call.argv(workdir))))
                    seconds_by_side[traced] += perf_counter() - t0
        for i, result in results:
            outcomes.record(i, *result)
    tracer.write(spans_path)

    sizes = [os.path.getsize(workdir / f"{c.doc.name}.json") for c in calls]
    metrics: dict[str, tuple] = {
        "startup.python_s": (python_s, "s"),
        "startup.numpy_s": (numpy_s, "s"),
    }
    absent = tracer.absent
    totals = tracer.layer_totals()
    for name in tracer.hooks:
        for suffix, unit, index in ((".s", "s", 0), (".calls", "count", 1)):
            if name in absent:
                metrics[name + suffix] = (None, unit, absent[name])
            else:
                metrics[name + suffix] = (totals[name][index] / passes, unit)

    def derived(metric, unit, needs, value):
        missing = [m for name in needs for m in absent.get(name, [])]
        metrics[metric] = (None, unit, missing) if missing else (value(), unit)

    derived("cli.command.self_s", "s", list(tracer.hooks),
            lambda: tracer.self_seconds("cli.command") / passes)
    derived("cli.load_input.bytes_in", "bytes", ["cli.load_input"],
            lambda: sum(sizes[s.command] for s in tracer.spans if s.name == "cli.load_input") / passes)
    derived("core.belief_from_mass.calls_per_command", "count", ["core.belief_from_mass", "cli.command"],
            lambda: totals["core.belief_from_mass"][1] / totals["cli.command"][1])
    metrics["cli.bytes_out"] = (float(sum(len(out) for _, out in filter(None, outcomes.first))), "bytes")
    metrics.update(oracle_quality(outcomes))
    metrics["trace.overhead_s"] = ((seconds_by_side[True] - seconds_by_side[False]) / passes, "s")
    return metrics, {"passes": passes}, outcomes


def oracle_quality(outcomes: Outcomes) -> dict[str, tuple]:
    """Oracle convergence and agreement, read from ``verify`` outputs.

    With no verify call both ratios are vacuously 1 and the gap 0; their bases
    are ``oracle.brute_force_partial.calls`` and ``oracle.library_global.calls``.
    """
    reports, checks = [], []
    for call, first in zip(outcomes.calls, outcomes.first):
        if call.command != "verify" or first is None or first[0] not in (0, 1):
            continue
        try:
            doc = json.loads(first[1])
        except ValueError:  # already counted as a failed call
            continue
        reports += doc["reports"]
        checks += doc["global_checks"]
    return {
        "oracle.converged_ratio": (sum(r["converged"] for r in reports) / len(reports) if reports else 1.0, "ratio"),
        "oracle.agree_ratio": (sum(c["agree"] for c in checks) / len(checks) if checks else 1.0, "ratio"),
        "oracle.worst_gap": (max((r["max_gap"] for r in reports), default=0.0), "distance"),
    }


def input_sizes(calls, workdir: Path) -> list[dict]:
    docs = {c.doc.name: c.doc for c in calls}
    return [
        {"doc": d.name, "n": d.n, "focal": int(d.masks.size), "bytes": os.path.getsize(workdir / f"{d.name}.json")}
        for d in docs.values()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "csbf" / "cli.py").is_file():
        print(f"error: no csbf package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        calls = workloads.build(args.workload, args.seed, workdir)
        inputs = input_sizes(calls, workdir)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            metrics, extra, outcomes = run_traced(calls, workdir, args.seconds, spans_path)
        else:
            rounds = rounds_for(args.workload, args.seconds, calls)
            metrics, extra, outcomes = run_e2e(calls, workdir, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "round": [c.label() for c in calls],
        **extra,
        "stdout_sha256": outcomes.digest(),
        "inputs": inputs,
        "problems": outcomes.problems,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": entry[0], "unit": entry[1], **({"absent": entry[2]} if len(entry) > 2 else {})}
            for name, entry in metrics.items()
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
