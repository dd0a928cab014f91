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
from csbf.core import TOL, SpaceKind

import output_contract
from conftest import frame_of_size, run_python
from paper_maths import random_mass_function
from test_golden import CASES as GOLDEN_CASES, MODES

HERE = os.path.dirname(__file__)
TERNARY = os.path.join(HERE, "..", "data", "ternary.json")
VERIFY_N4 = os.path.join(HERE, "fixtures", "verify_n4_seed410.json")
L2_NEAR_TIE = os.path.join(HERE, "fixtures", "l2_near_tie.json")


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

    def test_single_element_frame(self, capsys, tmp_path):
        path = write_doc(tmp_path, "one.json", {"frame": ["x"], "masses": {"x": 1.0}})
        doc, _ = run_json(
            capsys, ["approximate", path, "--norm", "l1", "--space", "mass", "--global"]
        )
        assert doc["result"]["optima"] == ["x"]
        assert doc["result"]["partials"]["x"]["masses"] == {"x": 1.0}

    def test_every_real_is_a_float(self, capsys, tmp_path):
        # consistent on x: the outside sums of x are empty, and must print as 0.0
        consistent = {"frame": ["x", "y", "z"], "masses": {"x": 0.5, "x,y": 0.5}}
        path = write_doc(tmp_path, "consistent.json", consistent)
        argvs = [["inspect", path]]
        for mode in MODES.values():
            for target in (["--global"], ["--focus", "x"], ["--focus", "z"]):
                argvs.append(["approximate", path, *mode, *target])
        for argv in argvs:
            doc, _ = run_json(capsys, argv)
            # the contract's reals are JSON floats, never integers
            assert output_contract.check(doc)[0] == [], argv


class TestInspect:
    def test_vacuous(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "vacuous.json", {"frame": ["x", "y", "z"], "masses": {"x,y,z": 1.0}}
        )
        doc, _ = run_json(capsys, ["inspect", path])
        assert doc["consistent"] is True
        assert doc["core"] == "x,y,z"

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


UNREADABLE = "cannot read input document: "

#: Documents that exit 2: each one's text (or bytes) and the cause its one
#: error line names.
MALFORMED = {
    "malformed JSON": ("{not json", UNREADABLE),
    "non-UTF-8 bytes": (b'\xff\xfe{"frame": ["x"], "masses": {"x": 1.0}}', UNREADABLE),
    "deeply nested JSON": ("[" * 200_000 + "]" * 200_000, UNREADABLE),
    "repeated top-level key": (
        '{"frame": ["x", "y"], "frame": ["x"], "masses": {"x": 1.0}}', "key 'frame' appears twice"
    ),
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
    # every subset in mask order, which the bulk read takes only if each mass is a float
    "false mass on a two-label key": (
        '{"frame": ["x", "y"], "masses": {"x": 0.5, "y": 0.5, "x,y": false}}',
        "mass of 'x,y' is not a number: False",
    ),
    # a multi-label key is named as written, not as its subset's text 'x,y'
    "false mass on a reversed two-label key": (
        '{"frame": ["x", "y"], "masses": {"x": 0.5, "y": 0.5, "y,x": false}}',
        "mass of 'y,x' is not a number: False",
    ),
    "NaN mass": ('{"frame": ["x", "y"], "masses": {"x": NaN, "y": 1.0}}', "not finite"),
    "float overflow mass": (
        '{"frame": ["x", "y"], "masses": {"x": 1e400, "y": 0.5}}', "mass of 'x' is not finite: inf"
    ),
    "lone -Infinity mass": (
        '{"frame": ["x", "y"], "masses": {"x": 1.0, "y": -Infinity}}',
        "mass of 'y' is not finite: -inf",
    ),
    "opposite infinite masses": (
        '{"frame": ["x", "y"], "masses": {"x": Infinity, "y": -Infinity}}',
        "mass of 'x' is not finite: inf",
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

MISSING = "/nonexistent/input.json"

#: Every other refused call: command, input, the flags after it, exit code and
#: the message its one error line holds.  A flag error needs no document, so
#: those calls read one that does not exist; a dict input is written first.
#: Paths are relative to the directory the call runs in.
REFUSED = {
    "--rep outside l2 mass": (
        "approximate", MISSING, [*MODES["l1-mass"], "--rep", "n2", "--focus", "x"], 3,
        "--rep applies only to --norm l2 --space mass",
    ),
    "l2 mass without --rep": (
        "approximate", MISSING, ["--norm", "l2", "--space", "mass", "--focus", "x"], 3,
        "--norm l2 --space mass needs an explicit --rep {n1,n2}",
    ),
    "--vertices outside linf": (
        "approximate", MISSING, [*MODES["l1-mass"], "--focus", "x", "--vertices"], 3,
        "--vertices applies only to --norm linf",
    ),
    "neither --focus nor --global": (
        "approximate", MISSING, MODES["l1-mass"], 3, "pick --focus <element> or --global"
    ),
    "--focus with --global": (
        "approximate", MISSING, [*MODES["l1-mass"], "--focus", "x", "--global"], 3,
        "--focus and --global are mutually exclusive",
    ),
    "unknown focus": (
        "approximate", TERNARY, [*MODES["l1-mass"], "--focus", "q"], 4, "unknown focus element 'q'"
    ),
    "--vertices on five elements": (
        "approximate", {"frame": list("abcde"), "masses": {"a,b": 1.0}},
        [*MODES["linf-mass"], "--focus", "a", "--vertices", "--out", "out.json"], 3,
        "frame too large for vertex enumeration",
    ),
    "verify on seven elements": (
        "verify", {"frame": list("abcdefg"), "masses": {"a,b,c,d,e,f,g": 1.0}}, [], 5,
        "verification needs a frame of at most 6 elements",
    ),
    "--out into a missing directory": (
        "approximate", TERNARY, [*MODES["l1-mass"], "--global", "--out", "missing/out.json"], 6,
        "cannot write output: ",
    ),
    "unreadable input": ("inspect", MISSING, [], 2, UNREADABLE),
}


def assert_refused(capsys, argv, code, message):
    """``argv`` exits ``code`` with one stderr line holding ``message``, an
    empty stdout and no new file in the working directory."""
    before = sorted(os.listdir())
    got, out, err = run(capsys, argv)
    assert (got, out) == (code, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert message in err, err
    assert sorted(os.listdir()) == before, argv


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_exits_2_naming_the_cause(capsys, monkeypatch, tmp_path, case):
    text, cause = MALFORMED[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(text.encode() if isinstance(text, str) else text)
    for argv in (
        ["inspect", "bad.json"],
        ["approximate", "bad.json", *MODES["linf-belief"], "--global", "--out", "out.json"],
    ):
        assert_refused(capsys, argv, 2, cause)


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_call_exits_with_its_code_and_one_line(capsys, monkeypatch, tmp_path, case):
    command, source, flags, code, message = REFUSED[case]
    monkeypatch.chdir(tmp_path)
    if isinstance(source, dict):
        source = write_doc(tmp_path, "input.json", source)
    assert_refused(capsys, [command, source, *flags], code, message)


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


@pytest.mark.parametrize(
    "position, shuffled",
    [(0, False), (127, False), (254, False), (127, True)],
    ids=["first", "middle", "last", "shuffled-middle"],
)
@pytest.mark.parametrize("case", sorted(ENTRY_FAULTS))
def test_dense_document_fault_gives_the_loop_message(capsys, tmp_path, case, position, shuffled):
    keys, values = _dense_items()
    ENTRY_FAULTS[case](keys, values, position)
    n = len(keys)
    order = np.random.default_rng(34).permutation(n).tolist() if shuffled else range(n)
    masses = {keys[i]: values[i] for i in order}
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
    def test_seed410_n4_document_passes_exactly(self, capsys):
        # A random n = 4 document on which a search oracle missed the L1
        # belief optimum by 0.017.
        doc, _ = run_json(capsys, ["verify", VERIFY_N4])
        assert doc["all_ok"] is True
        assert doc["config"] == {"match_tolerance": 1e-9}
        assert len(doc["reports"]) == 28
        assert max(r["max_gap"] for r in doc["reports"]) <= 1e-9

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

    def test_one_disagreeing_check_alone_fails_the_run(self, capsys, monkeypatch):
        # every report converges, and one cell's global check reads False
        from csbf import oracle  # verify's lazy import, done here so it can be patched

        agree = oracle.globals_agree

        def l2_belief_disagrees(result, reports):
            first = next(iter(reports.values()))
            return agree(result, reports) and (first.norm, first.space) != (2, SpaceKind.BELIEF)

        monkeypatch.setattr(oracle, "globals_agree", l2_belief_disagrees)
        code, out, err = run(capsys, ["verify", TERNARY])
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert all(r["converged"] is True for r in doc["reports"])
        checks = [(c["norm"], c["space"], c["agree"]) for c in doc["global_checks"]]
        assert [check for check in checks if check[2] is not True] == [("l2", "belief", False)]
        assert doc["all_ok"] is False

    def test_one_missed_report_alone_fails_the_run(self, capsys, monkeypatch):
        # every check agrees, and one report misses on x, outside its cell's optima
        from csbf import oracle

        solve = oracle.brute_force_partial

        def x_misses_in_l1_mass(m, x, p, kind):
            rep = solve(m, x, p, kind)
            if (x, p, kind) != ("x", 1, SpaceKind.MASS_N2):
                return rep
            return oracle.OracleReport(
                rep.focus, rep.norm, rep.space, rep.oracle_distance,
                rep.closed_form_distance, rep.oracle_point, 1.0, False,
            )

        monkeypatch.setattr(oracle, "brute_force_partial", x_misses_in_l1_mass)
        code, out, err = run(capsys, ["verify", TERNARY])
        assert (code, err) == (1, "")
        doc = json.loads(out)
        missed = [(r["norm"], r["space"], r["focus"]) for r in doc["reports"] if not r["converged"]]
        assert missed == [("l1", "mass-n2", "x")]
        assert all(c["agree"] is True and c["library_optima"] == ["y"] for c in doc["global_checks"])
        assert doc["all_ok"] is False

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
