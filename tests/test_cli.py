import _pyio
import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csbf import EvidenceError, Frame, MassFunction, PseudoMassFunction
from csbf import cli
from csbf.cli import load_input, main
from csbf.core import TOL

from conftest import frame_of_size, run_python
from paper_maths import random_mass_function
from test_golden import CASES as GOLDEN_CASES, MODES

HERE = os.path.dirname(__file__)
TERNARY = os.path.join(HERE, "..", "data", "ternary.json")
VERIFY_N4 = os.path.join(HERE, "fixtures", "verify_n4_seed410.json")
L2_NEAR_TIE = os.path.join(HERE, "fixtures", "l2_near_tie.json")
TERNARY_VERIFY = os.path.join(HERE, "golden", "ternary-verify.json")


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out), err


def iter_mass_blocks(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "masses" and isinstance(value, dict):
                yield value
            else:
                yield from iter_mass_blocks(value)
    elif isinstance(node, list):
        for item in node:
            yield from iter_mass_blocks(item)


class TestApproximate:
    def test_l1_mass_global_reproduces_golden_output(self, capsys):
        doc, _ = run_json(
            capsys, ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--global"]
        )
        result = doc["result"]
        assert result["optima"] == ["y"]
        assert result["partials"]["y"]["masses"] == {
            "y": 0.1,
            "x,y": 0.4,
            "y,z": 0.3,
            "x,y,z": 0.2,
        }
        assert result["criterion"] == {"x": 0.4, "y": 0.2, "z": 0.7}

    def test_l2_belief_focus_x_is_the_focused_transform(self, capsys):
        doc, _ = run_json(
            capsys,
            ["approximate", TERNARY, "--norm", "l2", "--space", "belief", "--focus", "x"],
        )
        assert doc["result"]["masses"] == {"x": 0.2, "x,y": 0.5, "x,z": 0.0, "x,y,z": 0.3}

    def test_linf_mass_focus_x_interval_table(self, capsys):
        doc, _ = run_json(
            capsys,
            ["approximate", TERNARY, "--norm", "linf", "--space", "mass", "--focus", "x"],
        )
        assert doc["result"]["intervals"] == {
            "x": [-0.1, 0.5],
            "x,y": [0.1, 0.7],
            "x,z": [-0.3, 0.3],
        }
        assert doc["result"]["admissible_clipped"] is True

    def test_l2_mass_needs_explicit_rep(self, capsys):
        code, _, err = run(
            capsys, ["approximate", TERNARY, "--norm", "l2", "--space", "mass", "--focus", "x"]
        )
        assert code == 3
        code, out, _ = run(
            capsys,
            [
                "approximate", TERNARY,
                "--norm", "l2", "--space", "mass", "--rep", "n1", "--focus", "x",
            ],
        )
        assert code == 0
        assert json.loads(out)["result"]["masses"] == {
            "x": 0.3, "x,y": 0.5, "x,z": 0.1, "x,y,z": 0.1
        }

    def test_rep_rejected_elsewhere(self, capsys):
        code, _, _ = run(
            capsys,
            ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--rep", "n2",
             "--focus", "x"],
        )
        assert code == 3

    def test_focus_or_global_required_and_exclusive(self, capsys):
        code, _, _ = run(capsys, ["approximate", TERNARY, "--norm", "l1", "--space", "mass"])
        assert code == 3
        code, _, _ = run(
            capsys,
            ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--focus", "x",
             "--global"],
        )
        assert code == 3

    def test_unknown_focus_element(self, capsys):
        code, _, err = run(
            capsys, ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--focus", "q"]
        )
        assert code == 4
        assert "unknown focus" in err

    def test_vertices_only_for_linf(self, capsys):
        code, _, _ = run(
            capsys,
            ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--focus", "x",
             "--vertices"],
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--norm", "l1", "--space", "mass", "--rep", "n2", "--focus", "x"], "--rep applies"),
            (["--norm", "l2", "--space", "mass", "--focus", "x"], "needs an explicit --rep"),
            (["--norm", "l1", "--space", "mass", "--focus", "x", "--vertices"], "--vertices"),
            (["--norm", "l1", "--space", "mass"], "pick --focus"),
            (["--norm", "l1", "--space", "mass", "--focus", "x", "--global"], "mutually exclusive"),
        ],
    )
    def test_flag_errors_come_before_the_input_is_read(self, capsys, flags, message):
        # a flag error needs no document: it exits 3, not 2, on a path that does not exist
        code, out, err = run(capsys, ["approximate", "/nonexistent/input.json", *flags])
        assert (code, out) == (3, "")
        assert message in err and err.count("\n") == 1

    def test_vertex_admissibility_flags(self, capsys):
        doc, _ = run_json(
            capsys,
            ["approximate", TERNARY, "--norm", "linf", "--space", "mass", "--focus", "x",
             "--vertices"],
        )
        vertices = doc["result"]["vertices"]
        assert len(vertices) == 8
        flags = set()
        for vertex in vertices:
            expected = min(vertex["masses"].values()) >= -1e-9
            assert vertex["admissible"] is expected
            flags.add(expected)
        assert flags == {True, False}

    def test_gamma_vertices_match_barycenter_structure(self, capsys):
        doc, _ = run_json(
            capsys,
            ["approximate", TERNARY, "--norm", "linf", "--space", "belief", "--focus", "y",
             "--vertices"],
        )
        expected = {"y": 0.1, "x,y": 0.6, "y,z": 0.3, "x,y,z": 0.0}
        got = doc["result"]["barycenter"]["masses"]
        assert set(got) == set(expected)
        assert all(abs(got[k] - expected[k]) <= 1e-12 for k in expected)
        assert len(doc["result"]["vertices"]) == 8

    def test_every_mass_block_sums_to_one(self, capsys):
        doc, _ = run_json(
            capsys,
            ["approximate", TERNARY, "--norm", "linf", "--space", "mass", "--global",
             "--vertices"],
        )
        blocks = list(iter_mass_blocks(doc))
        assert blocks
        for block in blocks:
            assert abs(sum(block.values()) - 1.0) <= 1e-9

    def test_output_is_byte_stable(self, capsys):
        argv = ["approximate", TERNARY, "--norm", "l2", "--space", "belief", "--global"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_reals_rounded_to_twelve_significant_digits(self, capsys):
        doc, _ = run_json(
            capsys,
            ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--focus", "z"],
        )
        # 0.4 + 0.3 in floating point carries a 1e-17 tail; output must not
        assert doc["result"]["distance"] == 0.7
        assert doc["result"]["masses"]["x,y,z"] == 0.7

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--global",
             "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"]["optima"] == ["y"]

    @pytest.mark.parametrize("raw", ["0.25", "0.5", "lots", "nan", "0"])
    def test_tolerance_env_is_not_read(self, capsys, monkeypatch, raw):
        # ties and admissibility flags use the package's constants: 0.25 would
        # tie x with y, 0.5 would pass the negative corners, the rest are no
        # tolerance at all, and none of them moves a byte
        for name in ("ternary-l1-mass-global", "ternary-linf-mass-x-vertices", "ternary-verify"):
            monkeypatch.delenv("CSBF_TOLERANCE", raising=False)
            unset = run(capsys, GOLDEN_CASES[name])
            assert (unset[0], unset[2]) == (0, ""), name
            monkeypatch.setenv("CSBF_TOLERANCE", raw)
            assert run(capsys, GOLDEN_CASES[name]) == unset, name

    def test_out_file_ends_lines_with_lf_on_every_platform(self, capsys, monkeypatch, tmp_path):
        # the pure-Python io translates "\n" to os.linesep, which the C io
        # has compiled in: a Windows line separator, seen on any platform
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(cli, "open", _pyio.open, raising=False)
        target = tmp_path / "inspect.json"
        assert run(capsys, ["inspect", TERNARY, "--out", str(target)]) == (0, "", "")
        with open(os.path.join(HERE, "golden", "ternary-inspect.json"), "rb") as fh:
            assert target.read_bytes() == fh.read()

    def test_vertices_refused_on_a_five_element_frame(self, capsys, tmp_path):
        path = write_doc(tmp_path, "n5.json", {"frame": list("abcde"), "masses": {"a,b": 1.0}})
        target = tmp_path / "out.json"
        argv = ["approximate", path, "--norm", "linf", "--space", "mass", "--focus", "a",
                "--vertices", "--out", str(target)]
        assert run(capsys, argv) == (3, "", "error: frame too large for vertex enumeration\n")
        assert not target.exists()

    def test_out_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(
            capsys,
            ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--global",
             "--out", str(target)],
        )
        assert (code, out) == (6, "")
        assert err.startswith("error: cannot write output: ")
        assert not target.parent.exists()


class TestOutputContracts:
    def test_input_echo_round_trips_through_the_parser(self, capsys, tmp_path):
        doc, _ = run_json(
            capsys, ["approximate", TERNARY, "--norm", "l1", "--space", "mass", "--global"]
        )
        echoed = write_doc(tmp_path, "echo.json", doc["input"])
        doc2, _ = run_json(
            capsys, ["approximate", echoed, "--norm", "l1", "--space", "mass", "--global"]
        )
        assert doc2["input"] == doc["input"]
        assert doc2["result"] == doc["result"]

    def test_verify_output_is_byte_stable(self, capsys, tmp_path):
        argv = ["verify", TERNARY]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_single_element_frame(self, capsys, tmp_path):
        path = write_doc(tmp_path, "one.json", {"frame": ["x"], "masses": {"x": 1.0}})
        doc, _ = run_json(
            capsys, ["approximate", path, "--norm", "l1", "--space", "mass", "--global"]
        )
        assert doc["result"]["optima"] == ["x"]
        assert doc["result"]["partials"]["x"]["masses"] == {"x": 1.0}

    def test_empty_subset_key_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "empty.json", {"frame": ["x", "y"], "masses": {"": 1.0}})
        code, _, _ = run(capsys, ["inspect", path])
        assert code == 2


    def test_every_real_is_a_float(self, capsys, tmp_path):
        # consistent on x: the outside sums of x are empty, and must print as 0.0
        consistent = {"frame": ["x", "y", "z"], "masses": {"x": 0.5, "x,y": 0.5}}
        path = write_doc(tmp_path, "consistent.json", consistent)
        modes = [
            ["--norm", "l1", "--space", "mass"],
            ["--norm", "l2", "--space", "mass", "--rep", "n1"],
            ["--norm", "l2", "--space", "mass", "--rep", "n2"],
            ["--norm", "linf", "--space", "mass"],
            ["--norm", "l1", "--space", "belief"],
            ["--norm", "l2", "--space", "belief"],
            ["--norm", "linf", "--space", "belief"],
        ]
        argvs = [["inspect", path]]
        for mode in modes:
            for target in (["--global"], ["--focus", "x"], ["--focus", "z"]):
                argvs.append(["approximate", path, *mode, *target])
        for argv in argvs:
            doc, _ = run_json(capsys, argv)
            assert list(iter_ints(doc)) == [], argv


def iter_ints(node, path=""):
    """Paths of JSON integers; bools are not integers here."""
    if type(node) is int:
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from iter_ints(value, f"{path}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from iter_ints(item, f"{path}[{i}]")


class TestInspect:
    def test_running_example(self, capsys):
        doc, _ = run_json(capsys, ["inspect", TERNARY])
        assert doc["consistent"] is False
        assert doc["core"] == ""
        assert doc["contour"] == {"x": 0.6, "y": 0.8, "z": 0.3}

    def test_vacuous(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "vacuous.json", {"frame": ["x", "y", "z"], "masses": {"x,y,z": 1.0}}
        )
        doc, _ = run_json(capsys, ["inspect", path])
        assert doc["consistent"] is True
        assert doc["core"] == "x,y,z"

    def test_near_unit_sum_renormalized_with_warning(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "near.json",
            {"frame": ["x", "y"], "masses": {"x": 0.499999, "x,y": 0.5}},
        )
        doc, err = run_json(capsys, ["inspect", path])
        assert "renormalized" in err
        assert abs(sum(doc["input"]["masses"].values()) - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "masses", [{"x": 1.0, "y": -1e-9}, {"x": -1e-10, "y": 1.0}], ids=["y=-1e-9", "x=-1e-10"]
    )
    def test_mass_noise_is_cleared_before_the_sum(self, capsys, tmp_path, masses):
        # masses in [-TOL, 0) are noise: the CLI reads the assignment the
        # library reads, with no renormalization and no warning
        frame = Frame(("x", "y"))
        expected = {
            frame.format_subset(mask): mass
            for mask, mass in MassFunction.from_labels(frame, masses).masses.items()
        }
        path = write_doc(tmp_path, "noise.json", {"frame": ["x", "y"], "masses": masses})
        for argv in (
            ["inspect", path],
            ["approximate", path, "--norm", "l1", "--space", "mass", "--global"],
        ):
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), argv
            doc = json.loads(out)
            assert doc["input"]["masses"] == expected, argv
            if argv[0] == "inspect":
                assert doc["focal_elements"] == expected

    def test_way_off_sum_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {"frame": ["x", "y"], "masses": {"x": 0.9}})
        code, _, _ = run(capsys, ["inspect", path])
        assert code == 2


def _load(path: str) -> tuple[bytes, str]:
    """``load_input``'s mass vector, as bytes, and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _, m, _ = load_input(path)
    return m.as_array().tobytes(), err.getvalue()


@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_mass_noise_on_empty_subsets_changes_nothing(n, seed, data):
    frame = frame_of_size(n)
    vector = random_mass_function(frame, np.random.default_rng(seed)).as_array()
    masses = dict(zip(frame.format_subsets(np.flatnonzero(vector)), vector[vector != 0].tolist()))
    empty = np.flatnonzero(vector[1:] == 0) + 1
    noisy = [key for key in frame.format_subsets(empty) if data.draw(st.booleans())]
    assume(noisy)
    noise = st.floats(-TOL, 0.0, exclude_max=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc_masses in (
            ("clean.json", masses),
            ("noisy.json", {**masses, **{key: data.draw(noise) for key in noisy}}),
        ):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as fh:
                json.dump({"frame": list(frame.elements), "masses": doc_masses}, fh)
        assert _load(paths[1]) == _load(paths[0])


def test_running_out_of_memory_exits_7_with_one_line(tmp_path):
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    # one mass on 24 elements: inspect needs several 2^24-entry arrays of
    # 128 MiB, and the limit, on the child only, holds a few of them
    limit = 512 << 20
    path = write_doc(
        tmp_path, "big24.json", {"frame": [f"e{i}" for i in range(24)], "masses": {"e0": 1.0}}
    )
    proc = run_python(
        "-m", "csbf.cli", "inspect", path,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        OPENBLAS_NUM_THREADS="1",  # the import's thread buffers stay well under the limit
    )
    assert (proc.returncode, proc.stdout) == (7, b""), proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines


def test_out_file_running_out_of_memory_midway_is_removed(capsys, monkeypatch, tmp_path):
    # any error while --out is written removes the part written, not only an OSError
    def chunks(doc, end):
        yield " " * 100_000
        raise MemoryError

    monkeypatch.setattr(cli, "_chunks", chunks)
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, ["inspect", TERNARY, "--out", str(out)])
    assert (code, stdout, err) == (7, "", "error: out of memory\n")
    assert not out.exists()


class TestParseFailures:
    def test_unreadable_file(self, capsys):
        code, _, _ = run(capsys, ["inspect", "/nonexistent/input.json"])
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, ["inspect", str(path)])
        assert code == 2

    def test_non_utf8_bytes(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff\xfe{"frame": ["x"], "masses": {"x": 1.0}}')
        code, out, err = run(capsys, ["inspect", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read input document: ")

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, ["inspect", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read input document: ")

    def test_unknown_element_in_key(self, capsys, tmp_path):
        path = write_doc(tmp_path, "bad.json", {"frame": ["x", "y"], "masses": {"x,q": 1.0}})
        code, _, _ = run(capsys, ["inspect", str(path)])
        assert code == 2

    def test_negative_mass_rejected(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "neg.json", {"frame": ["x", "y"], "masses": {"x": -0.2, "x,y": 1.2}}
        )
        code, _, _ = run(capsys, ["inspect", str(path)])
        assert code == 2


    @pytest.mark.parametrize(
        "masses, named",
        [
            ('{"x": NaN, "y": 1.0}', "'x'"),
            ('{"x": Infinity, "y": -Infinity}', "'x'"),
            # the id the case had before its message was pinned in full
            pytest.param(
                '{"x": 1.0, "y": Infinity}', "mass of 'y' is not finite: inf",
                id='{"x": 1.0, "y": Infinity}-inf',
            ),
            ('{"x": true, "y": false}', "'x'"),
            ('{"x": 0.5, "y": 0.5, "x,y": false}', "'x,y'"),
            ('{"x": 0.5, "x": 0.5, "y": 0.5}', "'x'"),
        ],
    )
    def test_bad_values_exit_2_with_no_output(self, capsys, tmp_path, masses, named):
        path = tmp_path / "bad.json"
        path.write_text('{"frame": ["x", "y"], "masses": ' + masses + "}")
        for argv in (
            ["approximate", str(path), "--norm", "l1", "--space", "mass", "--global"],
            ["inspect", str(path)],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert named in err

    def test_duplicate_top_level_key(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"frame": ["x", "y"], "frame": ["x"], "masses": {"x": 1.0}}')
        code, out, err = run(capsys, ["inspect", str(path)])
        assert (code, out) == (2, "")
        assert "'frame'" in err


MALFORMED = {
    "unknown element": ('{"frame": ["x", "y"], "masses": {"x,q": 1.0}}', "unknown frame element 'q'"),
    "empty key": ('{"frame": ["x", "y"], "masses": {"": 1.0}}', "malformed subset key ''"),
    "empty label in key": (
        '{"frame": ["x", "y"], "masses": {"x,,y": 1.0}}', "malformed subset key 'x,,y'"
    ),
    "repeated label in key": (
        '{"frame": ["x", "y"], "masses": {"x,x": 1.0}}', "subset key 'x,x' repeats an element"
    ),
    "one subset under two keys": (
        '{"frame": ["x", "y"], "masses": {"x,y": 0.5, "y,x": 0.5}}', "subset 'y,x' appears twice"
    ),
    "no frame": ('{"masses": {"x": 1.0}}', "input document needs 'frame' and 'masses'"),
    "no masses": ('{"frame": ["x", "y"]}', "input document needs 'frame' and 'masses'"),
    "top-level array": (
        '[{"frame": ["x"], "masses": {"x": 1.0}}]', "input document needs 'frame' and 'masses'"
    ),
    "frame not a list": ('{"frame": "xy", "masses": {"x": 1.0}}', "'frame' must be a list"),
    "frame label not a string": (
        '{"frame": ["x", 1], "masses": {"x": 1.0}}', "frame elements must be nonempty strings"
    ),
    "frame label with a comma": (
        '{"frame": ["x,y", "z"], "masses": {"z": 1.0}}', "may not contain commas"
    ),
    "duplicate frame labels": ('{"frame": ["x", "x"], "masses": {"x": 1.0}}', "must be unique"),
    "25-element frame": (
        json.dumps({"frame": [f"e{i}" for i in range(25)], "masses": {"e0": 1.0}}),
        "between 1 and 24 elements, got 25",
    ),
    "masses not an object": ('{"frame": ["x", "y"], "masses": [1.0]}', "'masses' must be an object"),
    "string mass": ('{"frame": ["x", "y"], "masses": {"x": "1.0"}}', "mass of 'x' is not a number"),
    "boolean mass": ('{"frame": ["x", "y"], "masses": {"x": true}}', "mass of 'x' is not a number"),
    "NaN mass": ('{"frame": ["x", "y"], "masses": {"x": NaN, "y": 1.0}}', "not finite"),
    "float overflow mass": (
        '{"frame": ["x", "y"], "masses": {"x": 1e400, "y": 0.5}}', "mass of 'x' is not finite: inf"
    ),
    "lone -Infinity mass": (
        '{"frame": ["x", "y"], "masses": {"x": 1.0, "y": -Infinity}}',
        "mass of 'y' is not finite: -inf",
    ),
    "repeated key": (
        '{"frame": ["x", "y"], "masses": {"x": 0.5, "x": 0.5}}', "key 'x' appears twice"
    ),
    "mass too large for a float": (
        '{"frame": ["x", "y"], "masses": {"x": 1' + "0" * 400 + ', "y": 0.5}}',
        "mass of 'x' is too large for a float",
    ),
    "negative mass": ('{"frame": ["x", "y"], "masses": {"x": -0.2, "x,y": 1.2}}', "negative mass"),
    "mass sum 0.9": ('{"frame": ["x", "y"], "masses": {"x": 0.9}}', "must sum to 1"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2_naming_the_cause(capsys, tmp_path, case):
    text, cause = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (
        ["inspect", str(path)],
        ["approximate", str(path), "--norm", "linf", "--space", "belief", "--global"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert cause in err, err


#: One fault each, masses keyed by labels on the frame (x, y), and the message
#: that the CLI document, ``from_labels`` and the ``{mask: mass}`` constructor give.
FAULTS = {
    "unknown element": ({"x": 0.5, "q": 0.5}, "unknown frame element 'q'"),
    "malformed key": ({"x,,y": 1.0}, "malformed subset key 'x,,y'"),
    "repeated label": ({"x,x": 1.0}, "subset key 'x,x' repeats an element"),
    "one subset under two keys": (
        {"x,y": 0.5, "y,x": 0.5}, "subset 'y,x' appears twice: duplicate subset 'x,y'"
    ),
    "string mass": ({"x": "1.0"}, "mass of 'x' is not a number: '1.0'"),
    "bool mass": ({"x": True}, "mass of 'x' is not a number: True"),
    "None mass": ({"x": None, "y": 1.0}, "mass of 'x' is not a number: None"),
    "int too large for a float": ({"x": 10**400, "y": 0.5}, "mass of 'x' is too large for a float"),
    "infinite mass": ({"x": 1.0, "y": math.inf}, "mass of 'y' is not finite: inf"),
    "negative infinite mass": ({"x": -math.inf}, "mass of 'x' is not finite: -inf"),
    "NaN mass": ({"x": math.nan, "y": 1.0}, "mass of 'x' is not finite: nan"),
    # two faults: each entry is checked key first, then its mass, in document order
    "unknown element and string mass": ({"q": "abc"}, "unknown frame element 'q'"),
    "string mass, then unknown element": (
        {"x": "abc", "q": 1.0}, "mass of 'x' is not a number: 'abc'"
    ),
}
#: Faults of a key's text, which an integer mask cannot have.
TEXT_KEY_FAULTS = {
    "unknown element", "malformed key", "repeated label", "one subset under two keys",
    "unknown element and string mass", "string mass, then unknown element",
}


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_every_door_names_a_fault_alike(capsys, tmp_path, case):
    masses, message = FAULTS[case]
    frame = Frame(("x", "y"))
    path = write_doc(tmp_path, "bad.json", {"frame": ["x", "y"], "masses": masses})
    assert run(capsys, ["inspect", path]) == (2, "", f"error: {message}\n")
    doors = [lambda cls: cls.from_labels(frame, masses)]
    if case not in TEXT_KEY_FAULTS:
        by_mask = {frame.parse_subset(key): value for key, value in masses.items()}
        doors.append(lambda cls: cls(frame, by_mask))
    for door in doors:
        for cls in (MassFunction, PseudoMassFunction):
            with pytest.raises(EvidenceError) as info:
                door(cls)
            assert str(info.value) == message, (cls, door)


def test_integer_beyond_the_digit_limit_exits_2(capsys, tmp_path):
    # json refuses ints of more than 4,300 digits with a plain ValueError; an
    # interpreter without that limit parses it and the float conversion fails
    path = tmp_path / "long.json"
    path.write_text('{"frame": ["x", "y"], "masses": {"x": 1' + "0" * 5000 + ', "y": 0.5}}')
    for argv in (["inspect", str(path)], ["verify", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "cannot read input document" in err or "'x' is too large" in err, err


def test_subset_key_whitespace_and_order_normalized(capsys, tmp_path):
    path = write_doc(tmp_path, "loose.json", {"frame": ["x", "y"], "masses": {" y , x": 1.0}})
    doc, _ = run_json(capsys, ["inspect", path])
    assert doc["input"]["masses"] == {"x,y": 1.0}


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_output_does_not_depend_on_the_order_of_the_mass_keys(capsys, tmp_path, order):
    rng = np.random.default_rng(5)
    frame = Frame(("x", "y", "z", "w", "v"))
    masks = np.sort(rng.choice(np.arange(1, frame.n_subsets), size=14, replace=False)).tolist()
    items = list(zip(frame.format_subsets(masks), rng.dirichlet(np.ones(len(masks))).tolist()))
    reordered = items[::-1] if order == "reversed" else [items[i] for i in rng.permutation(len(items))]
    outputs = []
    for name, pairs in (("ascending.json", items), ("reordered.json", reordered)):
        path = write_doc(tmp_path, name, {"frame": list(frame.elements), "masses": dict(pairs)})
        runs = [["inspect", path]]
        runs += [["approximate", path, *mode, "--global"] for mode in MODES.values()]
        outputs.append([run(capsys, argv) for argv in runs])
    assert outputs[0] == outputs[1]
    assert all(code == 0 for code, _, _ in outputs[0])


# A full-support document on eight elements has 255 keys, one per nonempty
# subset, so ingest reads it in bulk when they come in mask order; the same
# keys on a ten-element frame (255 of 1023 subsets) are read entry by entry,
# so there the loop reports.
DENSE_LABELS = tuple("abcdefgh")
LOOP_LABELS = DENSE_LABELS + ("i", "j")


def _dense_items():
    frame = Frame(DENSE_LABELS)
    masks = np.arange(1, frame.n_subsets)
    values = np.random.default_rng(8).dirichlet(np.ones(masks.size)).tolist()
    return frame.format_subsets(masks), values


def _key(edit):
    """The key at position i rewritten by ``edit``."""
    def apply(keys, values, i):
        keys[i] = edit(keys[i])
    return apply


def _mass(mass):
    """The mass at position i replaced by ``mass``."""
    def apply(keys, values, i):
        values[i] = mass
    return apply


def _twin(keys, values, i):
    """Position i takes the reversed spelling of a neighbour's multi-label subset."""
    j = i + 2 if i == 0 else i - 1
    assert "," in keys[j]
    keys[i] = ",".join(reversed(keys[j].split(",")))


_unknown = _key(lambda key: key + ",q")

#: Fault kinds of FAULTS and MALFORMED that sit in the entries of ``masses``,
#: each as an edit of the key and mass lists at position i.
ENTRY_FAULTS = {
    "unknown element": _unknown,
    "empty key": _key(lambda key: ""),
    "malformed key": _key(lambda key: key + ","),
    "repeated label": _key(lambda key: key + "," + key.split(",")[0]),
    "one subset under two keys": _twin,
    "string mass": _mass("1.0"),
    "bool mass": _mass(True),
    "None mass": _mass(None),
    "int too large for a float": _mass(10**400),
    "infinite mass": _mass(math.inf),
    "negative infinite mass": _mass(-math.inf),
    "NaN mass": _mass(math.nan),
    "negative mass": _mass(-0.2),
    "unknown element and string mass": lambda k, v, i: (_unknown(k, v, i), _mass("abc")(k, v, i)),
    # the second fault follows the first, or wraps to the first key
    "string mass, then unknown element": lambda k, v, i: (
        _mass("abc")(k, v, i), _unknown(k, v, (i + 1) % len(k))
    ),
}


@pytest.mark.parametrize("position", [0, 127, 254], ids=["first", "middle", "last"])
@pytest.mark.parametrize("case", sorted(ENTRY_FAULTS))
def test_dense_document_fault_gives_the_loop_message(capsys, tmp_path, case, position):
    keys, values = _dense_items()
    ENTRY_FAULTS[case](keys, values, position)
    masses = dict(zip(keys, values))
    assert len(masses) == 255
    results = []
    for name, labels in (("table.json", DENSE_LABELS), ("loop.json", LOOP_LABELS)):
        path = write_doc(tmp_path, name, {"frame": list(labels), "masses": masses})
        results.append(run(capsys, ["inspect", path]))
    assert results[0][:2] == (2, "")
    assert results[0][2].startswith("error: ")
    assert results[0] == results[1]


def test_dense_document_in_mask_order_shuffled_or_short_gives_the_same_bytes(capsys, tmp_path):
    # keys in mask order are read by one compare; shuffled, with one key
    # short, or on ten elements, entry by entry
    keys, values = _dense_items()
    values[101] += values[100]
    values[100] = 0.0
    pairs = list(zip(keys, values))
    shuffled = [pairs[i] for i in np.random.default_rng(34).permutation(len(pairs))]
    forms = {"ordered": pairs, "shuffled": shuffled, "short": pairs[:100] + pairs[101:]}
    outputs = {}
    for labels in (DENSE_LABELS, LOOP_LABELS):
        for name, items in forms.items():
            path = write_doc(tmp_path, f"{name}.json", {"frame": list(labels), "masses": dict(items)})
            runs = [["inspect", path], ["approximate", path, *MODES["linf-mass"], "--global"]]
            outputs[len(labels), name] = [run(capsys, argv) for argv in runs]
    assert all(code == 0 and err == "" for code, _, err in outputs[8, "ordered"])
    for size in (8, 10):
        assert outputs[size, "ordered"] == outputs[size, "shuffled"] == outputs[size, "short"]
    # the echo of the eight-element frame's masses is the loop's, byte for byte
    echo = json.loads(outputs[8, "ordered"][0][1])["input"]["masses"]
    assert echo == json.loads(outputs[10, "ordered"][0][1])["input"]["masses"]
    assert list(echo) == keys[:100] + keys[101:]


@pytest.mark.parametrize("case", sorted(ENTRY_FAULTS))
def test_shuffled_dense_document_fault_gives_the_loop_message(capsys, tmp_path, case):
    keys, values = _dense_items()
    ENTRY_FAULTS[case](keys, values, 127)
    order = np.random.default_rng(34).permutation(len(keys)).tolist()
    masses = {keys[i]: values[i] for i in order}
    assert len(masses) == 255
    results = []
    for name, labels in (("table.json", DENSE_LABELS), ("loop.json", LOOP_LABELS)):
        path = write_doc(tmp_path, name, {"frame": list(labels), "masses": masses})
        results.append(run(capsys, ["inspect", path]))
    assert results[0][:2] == (2, "")
    assert results[0][2].startswith("error: ")
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "spelling",
    [
        lambda key: ",".join(reversed(key.split(","))),
        lambda key: f" {key}\t",
        lambda key: ", ".join(key.split(",")[::-1]) + " ",
    ],
    ids=["reversed", "outer-whitespace", "reversed-padded"],
)
def test_dense_document_spelling_and_int_masses_give_the_same_bytes(capsys, tmp_path, spelling):
    keys, values = _dense_items()
    values[101] += values[100]
    values[100] = 0.0
    canonical = {"frame": list(DENSE_LABELS), "masses": dict(zip(keys, values))}
    respelled = {"frame": list(DENSE_LABELS), "masses": {spelling(k): v for k, v in zip(keys, values)}}
    with_int = {"frame": list(DENSE_LABELS), "masses": {**canonical["masses"], keys[100]: 0}}
    outputs = []
    for name, doc in (("canonical.json", canonical), ("respelled.json", respelled), ("int.json", with_int)):
        path = write_doc(tmp_path, name, doc)
        runs = [["inspect", path], ["approximate", path, *MODES["linf-belief"], "--global"]]
        outputs.append([run(capsys, argv) for argv in runs])
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(code == 0 and err == "" for code, _, err in outputs[0])


def test_dense_text_keys_are_no_integer_masks():
    keys, values = _dense_items()
    masses = dict(zip(keys, values))
    frame = Frame(DENSE_LABELS)
    assert MassFunction.from_labels(frame, masses) == MassFunction(frame, np.array([0.0, *values]))
    with pytest.raises(EvidenceError, match="^subset mask 'a' is not an integer$"):
        MassFunction(frame, masses)


class TestVerify:
    def test_running_example_passes(self, capsys):
        doc, _ = run_json(capsys, ["verify", TERNARY])
        assert doc["all_ok"] is True
        assert len(doc["reports"]) == 21
        assert all(r["converged"] for r in doc["reports"])
        assert all(c["agree"] for c in doc["global_checks"])
        assert all(c["library_optima"] == ["y"] for c in doc["global_checks"])

    def test_seed410_n4_document_passes_exactly(self, capsys):
        # A random n = 4 document on which a search oracle missed the L1
        # belief optimum by 0.017.
        doc, _ = run_json(capsys, ["verify", VERIFY_N4])
        assert doc["all_ok"] is True
        assert doc["config"] == {"match_tolerance": 1e-9}
        assert len(doc["reports"]) == 28
        assert max(r["max_gap"] for r in doc["reports"]) <= 1e-9

    def test_tolerance_env_leaves_verify_unchanged(self, capsys, monkeypatch):
        # the comparison tolerance of ``approximate`` widens ties; verify keeps
        # comparing at its own printed match tolerance
        monkeypatch.setenv("CSBF_TOLERANCE", "0.25")
        code, out, err = run(capsys, ["verify", TERNARY])
        assert code == 0, err
        with open(TERNARY_VERIFY, "rb") as fh:
            assert out.encode("utf-8") == fh.read()

    @pytest.mark.parametrize("flag", ["--grid-step", "--restarts", "--seed"])
    def test_search_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", TERNARY, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_does_not_import_scipy(self):
        code = (
            "import sys; from csbf.cli import main; "
            f"assert main(['verify', {TERNARY!r}, '--out', {os.devnull!r}]) == 0; "
            "assert not any(name.split('.')[0] == 'scipy' for name in sys.modules)"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr

    def test_frame_too_large(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "big.json",
            {"frame": list("abcdefg"), "masses": {"a,b,c,d,e,f,g": 1.0}},
        )
        assert run(capsys, ["verify", path]) == (
            5, "", "error: verification needs a frame of at most 6 elements\n"
        )

    @pytest.mark.parametrize("draw", [2, 34])
    def test_six_element_frame_passes(self, capsys, draw):
        path = os.path.join(HERE, "fixtures", f"l2_seed6_n6_draw{draw}.json")
        doc, _ = run_json(capsys, ["verify", path])
        assert doc["all_ok"] is True
        assert len(doc["reports"]) == 42
        assert max(r["max_gap"] for r in doc["reports"]) <= 1e-9

    def test_near_tie_lists_both_optima(self, capsys, tmp_path):
        path = write_doc(
            tmp_path,
            "tie.json",
            {"frame": ["x", "y", "z"], "masses": {"x": 0.2, "y": 0.2, "x,y": 0.6}},
        )
        doc, _ = run_json(capsys, ["verify", path])
        l1_check = next(
            c for c in doc["global_checks"] if c["norm"] == "l1" and c["space"] == "mass-n2"
        )
        assert l1_check["library_optima"] == ["x", "y"]
        assert l1_check["agree"] is True
        assert doc["all_ok"] is True
        # x holds 5e-9 more mass than y, which puts x ahead by 5e-9 or more in
        # every cell's distance: no tie, although the squared L2 mass criteria
        # differ by only 5e-10
        doc, _ = run_json(capsys, ["verify", L2_NEAR_TIE])
        assert [c["library_optima"] for c in doc["global_checks"]] == [["x"]] * 7
        assert all(c["agree"] is True for c in doc["global_checks"])
        assert doc["all_ok"] is True
