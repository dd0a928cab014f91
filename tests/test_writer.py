"""The CLI's JSON writer against the json-module reference it replaced.

Plain documents are checked directly; a ``_Block`` (subset masks and reals
held as arrays) against the reference of the ``{subset: value}`` dict it
stands for.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbf import cli
from csbf.cli import LONG_CHUNK, _Block, _chunks, _emit, _real, _reals
from csbf.core import EvidenceError, Frame


def round12(value):
    """Every float rounded to 12 significant digits; tuples become lists."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def _dumps(value) -> str:
    """The writer's JSON text of ``value``: its chunks, joined."""
    return "".join(_chunks(value))


def reference(doc) -> str:
    return json.dumps(round12(doc), indent=2, allow_nan=False)


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e-310,
    1e16, -1e16, 1e15, 1e12, 1e-7, 1e-5, 1e-4, 0.1, 0.7, 1.0, -1.0,
    0.99999999999996, 9.99999999999996e11, 9.999999999999996e15, 123456789012.5,
    1.7976931348623157e308,
]
SPECIAL_TEXT = ['"', "\\", "\n\t\r\x00\x1f\x7f", "é", "x,y", " ", "\U0001f600", 'a"b\\c']
NONFINITE = [math.nan, math.inf, -math.inf]

reals = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
texts = st.text(max_size=8) | st.sampled_from(SPECIAL_TEXT)
scalars = reals | st.integers() | st.booleans() | st.none() | texts
real_rows = st.integers(1, 3).flatmap(
    lambda k: st.dictionaries(texts, st.lists(reals, min_size=k, max_size=k), max_size=5)
)
documents = st.recursive(
    scalars | st.lists(reals, max_size=5) | st.dictionaries(texts, reals, max_size=5) | real_rows,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=25,
)


# Output blocks repeat a few values many times: zeros off the focus's
# supersets and shared interval bounds.  Pools of at most six values, some
# mixing the spellings the writer must keep apart or route through ``repr``.
MIXED_POOLS = [
    [0.0],
    [0.0, -0.0],
    [0.0, -0.0, 5e-324, -5e-324],
    [5e-324, 1.5e-310, 1e12, 123456789012.5, 9.999999999999996e15, 1e16],
    [0.99999999999996, 1.0, 0.0, -0.0, 1e-7, 9.99999999999996e11],
]
pools = st.lists(reals, min_size=1, max_size=6) | st.sampled_from(MIXED_POOLS)
repeated_reals = pools.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300))


def poison(bad):
    """Documents holding ``bad`` at some depth, beside finite values."""
    return st.one_of(
        st.builds(lambda xs, i: xs[:i] + [bad] + xs[i:], st.lists(reals, max_size=4), st.integers(0, 4)),
        st.builds(lambda d, k: {**d, k: bad}, st.dictionaries(texts, reals, max_size=4), texts),
        st.builds(lambda d, k: {**d, k: [0.5, bad]}, st.dictionaries(texts, st.lists(reals, min_size=2, max_size=2), max_size=4), texts),
        st.builds(lambda d, k: {**d, k: bad}, st.dictionaries(texts, documents, max_size=3), texts),
    )


nested_poison = st.sampled_from(NONFINITE).flatmap(
    lambda bad: st.recursive(
        poison(bad),
        lambda inner: st.builds(lambda a, x, b: [a, x, b], documents, inner, documents)
        | st.builds(lambda d, k, x: {**d, k: x}, st.dictionaries(texts, documents, max_size=3), texts, inner),
        max_leaves=4,
    )
)


@given(documents)
@settings(max_examples=400, deadline=None)
def test_matches_json_reference(doc):
    assert _dumps(doc) == reference(doc)


def block_reference(frame, masks, values):
    """The ``{subset: value}`` dict a block stands for, keys joined label by label."""
    keys = [",".join(lbl for i, lbl in enumerate(frame.elements) if m >> i & 1) for m in masks]
    return dict(zip(keys, np.asarray(values).tolist()))


# Labels that need JSON escaping; Frame refuses commas and outer whitespace.
LABEL_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "a", "b"]
labels = st.text(st.sampled_from(LABEL_CHARS), min_size=1, max_size=3).filter(
    lambda text: text == text.strip()
)
frames = st.lists(labels, min_size=1, max_size=7, unique=True).map(lambda lbls: Frame(tuple(lbls)))


@st.composite
def blocks(draw):
    """(frame, masks, values): masks with empty low or high halves, pooled reals."""
    frame = draw(frames)
    low_bits = (frame.size + 1) // 2
    low = st.integers(0, (1 << low_bits) - 1)
    high = st.integers(0, frame.full_mask >> low_bits).map(lambda h: h << low_bits)
    mask = st.integers(0, frame.full_mask) | low | high
    masks = draw(st.lists(mask, min_size=1, max_size=frame.n_subsets, unique=True))
    pool = draw(pools)
    width = draw(st.sampled_from([None, 1, 2]))
    shape = (len(masks),) if width is None else (len(masks), width)
    size = len(masks) * (width or 1)
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return frame, masks, np.array(values, dtype=np.float64).reshape(shape)


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_block_matches_json_reference(case):
    frame, masks, values = case
    block = _Block(frame, np.array(masks, dtype=np.int64), values)
    expected = block_reference(frame, masks, values)
    assert _dumps(block) == reference(expected)
    assert _dumps({"a": [block, 0.5]}) == reference({"a": [expected, 0.5]})


siblings = scalars | st.lists(reals, max_size=3) | st.dictionaries(texts, reals, max_size=3)


@st.composite
def nested_blocks(draw):
    """(document, reference document): a block 1-6 levels deep in dicts and lists, with siblings."""
    frame, masks, values = draw(blocks())
    doc = _Block(frame, np.array(masks, dtype=np.int64), values)
    expected = block_reference(frame, masks, values)
    for _ in range(draw(st.integers(1, 6))):
        before, after = draw(st.lists(siblings, max_size=2)), draw(st.lists(siblings, max_size=2))
        if draw(st.booleans()):
            doc, expected = before + [doc] + after, before + [expected] + after
        else:
            key = draw(texts)
            head = {f"{key}<{i}": item for i, item in enumerate(before)}
            tail = {f"{key}>{i}": item for i, item in enumerate(after)}
            doc, expected = {**head, key: doc, **tail}, {**head, key: expected, **tail}
    return doc, expected


@given(nested_blocks())
@settings(max_examples=200, deadline=None)
def test_nested_block_matches_json_reference(case):
    doc, expected = case
    assert _dumps(doc) == reference(expected)


@given(blocks(), st.sampled_from(NONFINITE), st.data())
@settings(max_examples=50, deadline=None)
def test_block_refuses_non_finite_and_out_of_range(case, bad, data):
    frame, masks, values = case
    poisoned = values.copy()
    poisoned.flat[data.draw(st.integers(0, values.size - 1))] = bad
    with pytest.raises(ValueError):
        _dumps(_Block(frame, np.array(masks, dtype=np.int64), poisoned))
    outside = data.draw(st.sampled_from([-1, frame.n_subsets]))
    masks = masks[:-1] + [outside]
    with pytest.raises(EvidenceError, match="out of range"):
        _dumps(_Block(frame, np.array(masks, dtype=np.int64), values))


def test_empty_block():
    block = _Block(Frame(("x", "y")), np.array([], dtype=np.int64), np.array([]))
    assert _dumps({"b": block}) == reference({"b": {}})


@given(repeated_reals)
@settings(max_examples=200, deadline=None)
def test_repeated_values_match_json_reference(values):
    frame = Frame(tuple(f"e{i}" for i in range(9)))
    masks = np.arange(len(values), dtype=np.int64)[::-1]
    rows = np.column_stack([values, np.negative(values)])
    for block_values in (np.array(values), rows):
        block = _Block(frame, masks, block_values)
        assert _dumps(block) == reference(block_reference(frame, masks, block_values))
    assert _dumps(values) == reference(values)


def test_long_block_keeps_rare_values_and_finds_nan():
    frame = Frame(tuple(f"e{i}" for i in range(15)))
    values = np.zeros(2**15)
    values[7] = -0.0
    values[30000] = 5e-324
    masks = np.arange(2**15, dtype=np.int64)
    assert _dumps(_Block(frame, masks, values)) == reference(block_reference(frame, masks, values))
    values[20000] = math.nan
    with pytest.raises(ValueError):
        _dumps(_Block(frame, masks, values))


def _decades():
    """10^e for e in -325..308, its neighbours and 9.9999999999995·10^e."""
    for e in range(-325, 309):
        for v in (float(f"1e{e}"), float(f"9.9999999999995e{e}")):
            yield from (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


DECADES = [v for v in _decades() if math.isfinite(v)]


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=1000, deadline=None)
def test_real_matches_repr_of_rounded(v):
    assert _reals(np.array([v])).tolist() == [repr(float(format(v, ".12g")))]


def test_reals_match_real_at_every_decade():
    values = np.array(DECADES + [-v for v in DECADES])
    assert _reals(values).tolist() == list(map(_real, values.tolist()))


def _flag_edges():
    """Values at the edges of the ``.12g`` spellings that ``_reals`` routes to ``_real``."""
    for e in range(12):
        k = float(10**e)
        yield from (math.nextafter(k, -math.inf), k, math.nextafter(k, math.inf))
        yield from (k * (1 + d) for d in (4e-12, -4e-12, 2e-11, -2e-11))
    for v in (1e10, 1e12, 1e13, 1e14, 1e15, 1e16):
        yield from (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))
    yield from (12345678901.5, 98765432109.5, 123456789012.5)
    yield from (5e-324, 1.5e-310, math.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308)
    yield from (0.0, -0.0, 0.99999999999996)


def test_reals_match_real_at_the_flag_edges():
    values = [sign * v for v in _flag_edges() for sign in (1.0, -1.0)]
    assert _reals(np.array(values)).tolist() == [_real(v) for v in values]


def test_one_reals_pass_per_document(monkeypatch):
    frame = Frame(("x", "y", "z"))
    masks = np.array([1, 3, 7], dtype=np.int64)
    masses = _Block(frame, masks, np.array([0.25, 0.0, 0.75]))
    rows = _Block(frame, masks, np.array([[0.25, 0.5], [-0.0, 0.0], [0.75, 1.0]]))
    doc = {"a": masses, "b": [rows, {"c": masses}], "d": 0.5}
    calls = []

    def counted(values):
        calls.append(values.size)
        return _reals(values)

    monkeypatch.setattr(cli, "_reals", counted)
    text = _dumps(doc)
    assert calls == [3 + 6 + 3 + 1]
    expected, expected_rows = (block_reference(frame, masks, b.values) for b in (masses, rows))
    assert text == reference({"a": expected, "b": [expected_rows, {"c": expected}], "d": 0.5})
    calls.clear()
    assert _dumps({"e": 0.5, "f": [1, "g"]}) == reference({"e": 0.5, "f": [1, "g"]})
    assert calls == [1]
    calls.clear()
    assert _dumps({"f": [1, "g", None]}) == reference({"f": [1, "g", None]})
    assert calls == []


# Values the writer must keep apart or route through ``_real``, to be split
# across the blocks of one document.
SHARED_FLOATS = [0.0, -0.0, 5e-324, -5e-324, *_flag_edges()]


@st.composite
def documents_sharing_values(draw):
    """(document, reference document): blocks 1-D and 2-D, drawing from one pool of values."""
    frame = Frame(tuple(f"e{i}" for i in range(4)))
    pool = draw(st.lists(st.sampled_from(SHARED_FLOATS) | reals, min_size=1, max_size=8))
    doc, expected = {}, {}
    for i in range(draw(st.integers(1, 5))):
        masks = draw(st.lists(st.integers(0, frame.full_mask), min_size=1, max_size=16, unique=True))
        shape = (len(masks),) if draw(st.booleans()) else (len(masks), 2)
        size = math.prod(shape)
        values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        values = np.array(values, dtype=np.float64).reshape(shape)
        doc[f"b{i}"] = [_Block(frame, np.array(masks, dtype=np.int64), values), pool[0]]
        expected[f"b{i}"] = [block_reference(frame, masks, values), pool[0]]
    return doc, expected


@given(documents_sharing_values())
@settings(max_examples=200, deadline=None)
def test_blocks_sharing_values_match_json_reference(case):
    doc, expected = case
    assert _dumps(doc) == reference(expected)


@pytest.mark.parametrize("out", [False, True])
def test_nan_in_the_last_block_writes_nothing(out, tmp_path, capsys):
    frame = Frame(("x", "y"))
    masks = np.array([1, 2, 3], dtype=np.int64)
    last = np.array([[0.5, 1.0], [0.0, 0.5], [0.25, math.nan]])
    doc = {"a": _Block(frame, masks, np.array([0.5, 0.0, 0.5])), "b": 0.5,
           "c": [_Block(frame, masks, last)]}
    target = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _emit(doc, str(target) if out else None)
    assert capsys.readouterr().out == ""
    assert not target.exists()


@pytest.mark.parametrize("value", SPECIAL_FLOATS)
def test_special_floats(value):
    for doc in (value, [value], {"k": value}, {"k": [value, -value]}, {"k": {"j": value}}):
        assert _dumps(doc) == reference(doc)


def test_empty_containers_and_text():
    doc = {
        "": {}, "a": [], "b": [[], {}], "c": SPECIAL_TEXT, "d": (), "e": [[]], "f": {"a": {}},
        **{t: t for t in SPECIAL_TEXT},
    }
    assert _dumps(doc) == reference(doc)


def test_chunks_refuse_a_set():
    # and every other value JSON cannot hold, with json's own message
    cases = [({0.5}, set), (np.bool_(True), np.bool_), (np.int64(1), np.int64), (b"x", bytes),
             (1j, complex), ([0.5, {0.5}], set)]
    for bad, kind in cases:
        message = f"^Object of type {kind.__name__} is not JSON serializable$"
        with pytest.raises(TypeError, match=message):
            _chunks({"a": bad})


@given(nested_poison)
@settings(max_examples=100, deadline=None)
def test_non_finite_raises(doc):
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(ValueError):
        _dumps(doc)


def test_emit_writes_reference_plus_newline(tmp_path):
    doc = {"masses": {"x": 0.1 + 0.2, "x,y": 0.7}, "flag": True, "rows": {"x": [0.0, -0.0]}}
    target = tmp_path / "out.json"
    _emit(doc, str(target))
    assert target.read_text(encoding="utf-8") == reference(doc) + "\n"


def test_emit_writes_long_blocks_between_short_chunks(tmp_path, capsys):
    # two blocks far longer than the runs of short chunks around them
    frame = Frame(tuple("abcdefghij"))
    masks = np.arange(1, frame.n_subsets, dtype=np.int64)
    values = np.linspace(0.0, 1.0, len(masks))
    rows = np.stack([values, -values], axis=1)
    expected_masses = block_reference(frame, masks.tolist(), values)
    expected_rows = block_reference(frame, masks.tolist(), rows)
    doc = {"a": 1, "masses": _Block(frame, masks, values),
           "b": [0.5, {"rows": _Block(frame, masks, rows)}], "c": None}
    expected = reference({"a": 1, "masses": expected_masses,
                          "b": [0.5, {"rows": expected_rows}], "c": None}) + "\n"
    _emit(doc, None)
    assert capsys.readouterr().out == expected
    target = tmp_path / "out.json"
    _emit(doc, str(target))
    assert target.read_text(encoding="utf-8") == expected


def test_chunks_join_short_texts_and_keep_long_blocks_apart():
    frame = Frame(tuple("abcdefghijk"))
    masks = np.arange(1, frame.n_subsets, dtype=np.int64)
    block = _Block(frame, masks, np.linspace(0.0, 1.0, len(masks)))
    doc = {"a": 1, "masses": block, "b": [0.5, {"again": block}], "c": None}
    chunks = _chunks(doc, "\n")
    assert [len(chunk) >= LONG_CHUNK for chunk in chunks] == [False, True, False, True, False]
    assert "".join(chunks) == _dumps(doc) + "\n"
    assert chunks[-1].endswith("null\n}\n")
