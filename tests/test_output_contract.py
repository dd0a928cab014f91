"""Every command's output keeps ``output_contract``: the golden files, and
drawn documents through ``cli.main`` in every flag combination."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbf.cli import main

from output_contract import check
from test_golden import CASES, GOLDEN, MODES

HERE = os.path.dirname(__file__)
#: Frame labels to draw from, with a quote, a non-ASCII letter and an inner space.
LABELS = ("x", "y", 'q"', "é", "a b", "w")


def expected_forms(argv: list[str]) -> set[str]:
    """The forms and optional groups ``argv``'s document prints (see ``output_contract``)."""
    if argv[0] != "approximate":
        return set()
    norm, space = argv[argv.index("--norm") + 1], argv[argv.index("--space") + 1]
    if norm == "linf":
        forms = {"mass box" if space == "mass" else "gamma box"}
    else:
        forms = {"point payload"}
    if space == "belief" and norm != "linf":
        forms.add("both distances")
    if "--vertices" in argv:
        forms.add("vertices")
    if "--global" in argv:
        forms.add("global")
    return forms


def assert_keeps_the_contract(doc, argv):
    breaches, used = check(doc)
    assert breaches == [], argv
    assert used == expected_forms(argv), argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_file_keeps_the_contract(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        assert_keeps_the_contract(json.load(fh), CASES[name])


@st.composite
def documents(draw, max_n: int) -> dict:
    """A document on n <= ``max_n`` drawn labels: small integer weights on
    drawn focal sets, so that ties between foci are common."""
    n = draw(st.integers(1, max_n))
    frame = draw(st.permutations(LABELS))[:n]
    masks = draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=2**n - 1, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(masks), max_size=len(masks)))
    return {
        "frame": frame,
        "masses": {
            ",".join(label for i, label in enumerate(frame) if mask >> i & 1): w / sum(weights)
            for mask, w in zip(masks, weights)
        },
    }


def run_all(path: str, argvs: list[list[str]]) -> None:
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
        assert code == 0, (argv, err.getvalue())
        assert_keeps_the_contract(json.loads(out.getvalue()), argv)


def inspect_and_approximate_argvs(frame: list[str]) -> list[list[str]]:
    argvs = [["inspect"]]
    for mode in MODES.values():
        argvs += [["approximate", *mode, "--global"], ["approximate", *mode, "--focus", frame[-1]]]
        if mode[1] == "linf" and len(frame) <= 4:
            argvs.append(["approximate", *mode, "--focus", frame[0], "--vertices"])
    return argvs


@given(documents(max_n=5), documents(max_n=4))
@settings(max_examples=120, deadline=None)
def test_drawn_documents_keep_the_contract(doc, small):
    with tempfile.TemporaryDirectory() as tmp:
        path, small_path = os.path.join(tmp, "doc.json"), os.path.join(tmp, "small.json")
        for name, document in ((path, doc), (small_path, small)):
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
        run_all(path, inspect_and_approximate_argvs(doc["frame"]))
        run_all(small_path, [["verify"]])


@pytest.mark.parametrize("draw", [2, 34])
def test_verify_at_the_frame_cap_keeps_the_contract(draw):
    run_all(os.path.join(HERE, "fixtures", f"l2_seed6_n6_draw{draw}.json"), [["verify"]])
