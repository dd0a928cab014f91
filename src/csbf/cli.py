"""Command line surface: JSON in, JSON out.

Input documents look like::

    {"frame": ["x", "y", "z"],
     "masses": {"x": 0.2, "y": 0.1, "x,y": 0.4, "y,z": 0.3}}

Subset keys are comma-joined element labels; they are re-emitted normalized
to frame order.  All real numbers in the output are rounded to 12 significant
digits, which keeps repeated runs byte-identical.

Exit codes: 0 ok, 1 verification found a gap, 2 unreadable or invalid input,
3 invalid flag combination, 4 unknown focus element, 5 frame too large to
verify, 6 output file cannot be written, 7 out of memory, 8 the oracle
failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .core import (
    TOL,
    EvidenceError,
    Frame,
    MassFunction,
    PseudoMassFunction,
    SpaceKind,
    belief_from_mass,
    clear_noise,
    core_of,
    mass_vector,
    ultrafilter,
)
# The commands run ``CELLS``.  The selectors, the partial solvers and
# gamma_to_mass are bound here only for perfbench's hook sites on this
# module (perfbench/spans.py: the ``consistent_mass.*`` and
# ``consistent_belief.*`` spans); the oracle's two hook sites,
# ``brute_force_partial`` and ``library_global``, resolve through
# ``__getattr__`` below, so only ``verify`` loads the oracle.
from .consistent_mass import (
    ApproxBox,
    LinfBox,
    global_l1_mass,
    global_l2_mass,
    global_linf_mass,
    partial_l1_mass,
    partial_l2_mass,
    partial_linf_mass,
)
from .consistent_belief import (
    CELLS,
    focused_transform,
    gamma_to_mass,
    global_l1_belief,
    global_l2_belief,
    global_linf_belief,
    partial_linf_belief,
)

EXIT_OK = 0
EXIT_GAP = 1
EXIT_PARSE = 2
EXIT_FLAGS = 3
EXIT_FOCUS = 4
EXIT_FRAME = 5
EXIT_WRITE = 6
EXIT_MEMORY = 7
EXIT_ORACLE = 8

INGEST_SUM_TOL = 1e-6
#: ``--norm`` label -> p of the Lp norm, the first half of a ``CELLS`` key.
NORMS = {"l1": 1, "l2": 2, "linf": math.inf}
MAX_VERTEX_COORDS = 12
#: Output texts at least this long are written as chunks of their own.
LONG_CHUNK = 1 << 16
_NON_FINITE = "Out of range float values are not JSON compliant"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """JSON object hook: a repeated key is an error, never a silent overwrite."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        repeated = next(key for key, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise CliError(f"key {repeated!r} appears twice in an object", EXIT_PARSE)
    return doc


def load_input(path: str) -> tuple[Frame, MassFunction, dict]:
    """Parse an input document; clear mass noise, then renormalize a near-unit sum with a warning."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the int digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read input document: {exc}", EXIT_PARSE) from None
    if not isinstance(raw, dict) or "frame" not in raw or "masses" not in raw:
        raise CliError("input document needs 'frame' and 'masses'", EXIT_PARSE)
    labels = raw["frame"]
    if not isinstance(labels, list):  # Frame checks each label
        raise CliError("'frame' must be a list of strings", EXIT_PARSE)
    if not isinstance(raw["masses"], dict):
        raise CliError("'masses' must be an object", EXIT_PARSE)
    # from here on a fault raises EvidenceError, which main reports with exit code 2
    frame = Frame(tuple(labels))
    vector = mass_vector(frame, raw["masses"], Frame.parse_subset)
    clear_noise(vector)
    # Builtin sum in ascending mask order: document order when the keys ascend,
    # as in every golden and benchmark document, and the same for any key order.
    total = sum(vector[vector != 0.0].tolist())
    # a non-finite total skips both steps, and MassFunction names the non-finite mass
    if math.isfinite(total) and total != 1.0:
        if abs(total - 1.0) > INGEST_SUM_TOL:
            raise EvidenceError(f"mass values must sum to 1 within {INGEST_SUM_TOL}, got {total!r}")
        vector /= total
        if abs(total - 1.0) > 1e-12:
            print(f"warning: mass values summed to {total!r}; renormalized", file=sys.stderr)
    m = MassFunction(frame, vector)
    echo = {
        "frame": list(frame.elements),
        "masses": _mass_block(m, np.flatnonzero(m.as_array())),
    }
    return frame, m, echo


# ---------------------------------------------------------------------------
# Output assembly.
# ---------------------------------------------------------------------------


def _real(v: float) -> str:
    """JSON text of ``v`` rounded to 12 significant digits: the rule :func:`_reals` applies."""
    return repr(float(format(v, ".12g")))


def _reals(values: np.ndarray) -> np.ndarray:
    """:func:`_real` of each value as an object array, each distinct bit pattern formatted once.

    :func:`_chunks` calls it once per document, on all its reals: the
    scalars and the blocks' values.  ``+0.0``, most of a sparse document's
    values, is the one with bit pattern 0 and gets its text ``0.0`` without
    being sorted; the other values are deduplicated on their bit patterns,
    which keeps ``-0.0`` apart.  The distinct values are formatted with
    ``.12g`` in one ``%`` pass.  A decimal of at most 12 significant digits
    survives the round trip through a double, so that text is
    :func:`_real`'s unless the value is zero, subnormal or within 1e-11 of
    its magnitude of an integer: a ``.12g`` text without ``.`` or ``e``
    moves the value by at most 5e-12 of it, and every value from 5e10 up
    (so each whose text has ``e+``) is within 0.5 of an integer.  Those
    values take :func:`_real`.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(_NON_FINITE)
    raw = arr.view(np.int64)
    nonzero = raw != 0
    bits, inverse = np.unique(raw[nonzero], return_inverse=True)
    distinct = bits.view(np.float64)
    size = np.abs(distinct)
    flagged = (size < sys.float_info.min) | (np.abs(distinct - np.rint(distinct)) <= 1e-11 * size)
    floats = distinct.tolist()
    texts = ("%.12g\0" * len(floats) % tuple(floats)).split("\0")
    for i in np.flatnonzero(flagged).tolist():
        texts[i] = _real(floats[i])
    out = np.empty(arr.shape, dtype=object)
    out.fill("0.0")
    out[nonzero] = np.array(texts[:-1], dtype=object)[inverse.ravel()]
    return out


class _Block:
    """A ``{subset: real}`` or ``{subset: [real, ...]}`` object, held as arrays.

    ``values`` has one entry (1-D) or one row (2-D) per mask, in output order.
    A plain class, since building a dataclass costs about 0.8 ms at import,
    paid by every CLI call (2-vCPU Xeon VM, Python 3.11).
    """

    __slots__ = ("frame", "masks", "values")

    def __init__(self, frame: Frame, masks: np.ndarray, values: np.ndarray):
        self.frame, self.masks, self.values = frame, masks, values


def _json_escape(text: str) -> str:
    """JSON string body of ``text``, escaped to ASCII as ``json`` does, without quotes."""
    return encode_basestring_ascii(text)[1:-1]


def _block_text(block: _Block, indent: str, reals: np.ndarray) -> str:
    """JSON text of a block, braces included: one object array of pieces and one join.

    ``reals`` is :func:`_reals` of the block's values.  Key texts come from
    :meth:`Frame.gather_texts`, escaped once per label table entry, with the
    row's separators before and after the key added to the table entries,
    so a plain row is three pieces and an interval row six.
    """
    inner = indent + "  "
    deeper = inner + "  "
    after = '": ' if reals.ndim == 1 else f'": [\n{deeper}'
    heads, tails = block.frame.gather_texts(block.masks, _json_escape, f',\n{inner}"', after)
    if not len(heads):
        return "{}"
    columns = [heads, tails]
    if reals.ndim == 1:
        columns.append(reals)
    else:
        for j in range(reals.shape[1]):
            columns += [f",\n{deeper}", reals[:, j]] if j else [reals[:, j]]
        columns.append(f"\n{inner}]")
    pieces = np.empty((len(heads), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        pieces[:, j] = column
    pieces[0, 0] = "{" + pieces[0, 0][1:]  # the brace, and no comma before the first entry
    pieces[-1, -1] += f"\n{indent}}}"
    return "".join(pieces.ravel().tolist())


def _write(value: Any, indent: str, append: Callable[[Any], None]) -> None:
    """Pass the JSON text of ``value`` to ``append`` in pieces.

    Their join is ``json.dumps(value, indent=2, allow_nan=False)`` with
    every real rounded by :func:`_real`.  Object keys must be strings.  A
    scalar float is passed on as itself, and a :class:`_Block` as the pair
    ``(block, indent)``, for :func:`_chunks` to spell the real and write the
    ``{subset: value}`` object the block stands for.  Every other scalar and
    every empty container is spelled by ``json.dumps``, which also raises
    its ``TypeError`` on a value JSON cannot hold.
    """
    if isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif isinstance(value, float):
        append(value)
    elif isinstance(value, _Block):
        append((value, indent))
    elif isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        keyed = isinstance(value, dict)
        head = "{\n" if keyed else "[\n"
        for key, item in value.items() if keyed else enumerate(value):
            append(head + inner + (encode_basestring_ascii(key) + ": " if keyed else ""))
            _write(item, inner, append)
            head = ",\n"
        append(f"\n{indent}" + ("}" if keyed else "]"))
    else:
        append(json.dumps(value))


def _chunks(value: Any, end: str = "") -> list[str]:
    """The JSON text of ``value``, then ``end``, as few chunks.

    :func:`_write` lays out the document's pieces, its scalar reals and
    blocks as placeholders in write order.  All their reals are then
    formatted by one :func:`_reals` call, so a value repeated across the
    document is formatted once and a non-finite one raises before any text
    is built; each scalar takes its own text, and each block is written by
    :func:`_block_text` from its own slice of them.

    Each text of at least :data:`LONG_CHUNK` characters (a large block) is a
    chunk of its own; each run of shorter texts between them is joined into
    one chunk, so an unbuffered stream takes one write per chunk, not one
    per bracket and key.
    """
    pieces: list = []
    _write(value, "", pieces.append)
    values = [[piece] if isinstance(piece, float) else piece[0].values.ravel()
              for piece in pieces if not isinstance(piece, str)]
    reals = _reals(np.concatenate(values)) if values else None
    start = 0
    chunks: list[str] = []
    run: list[str] = []
    for text in pieces:
        if isinstance(text, tuple):
            block, indent = text
            stop = start + block.values.size
            text = _block_text(block, indent, reals[start:stop].reshape(block.values.shape))
            start = stop
        elif isinstance(text, float):
            text = reals[start]
            start += 1
        if len(text) < LONG_CHUNK:
            run.append(text)
            continue
        if run:
            chunks.append("".join(run))
            run.clear()
        chunks.append(text)
    run.append(end)
    chunks.append("".join(run))
    return chunks


def _emit(doc: dict, out_path: str | None) -> None:
    """Write the JSON text of ``doc`` and a newline, chunk by chunk.

    The document is never joined into one string: that would hold a second
    copy of all of it beside the chunks.  An ``--out`` file whose writing
    fails for any reason is removed before the error goes on, so no
    truncated document is left; only a regular file is removed, never a
    device or a symbolic link.
    """
    chunks = _chunks(doc, "\n")
    partial = None
    try:
        try:
            # LF on every platform; stdout stays the text stream it is
            with (open(out_path, "w", encoding="utf-8", newline="\n") if out_path is not None
                  else nullcontext(sys.stdout)) as fh:
                partial = out_path
                fh.writelines(chunks)
                fh.flush()
        except BaseException:
            if partial is not None and os.path.isfile(partial) and not os.path.islink(partial):
                os.remove(partial)
            raise
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_WRITE) from None


def _mass_block(m: PseudoMassFunction, masks: Sequence[int]) -> _Block:
    masks = np.asarray(masks, dtype=np.int64)
    return _Block(m.frame, masks, m.as_array()[masks])


def _element_block(frame: Frame, by_label: Mapping[str, float]) -> _Block:
    """``{element: real}`` as a block of singleton masks, in frame order."""
    values = np.array([by_label[lbl] for lbl in frame.elements], dtype=np.float64)
    return _Block(frame, 1 << np.arange(frame.size, dtype=np.int64), values)


def _point_payload(m: PseudoMassFunction, focus: str) -> dict:
    masks = ultrafilter(m.frame, focus)
    return {
        "masses": _mass_block(m, masks),
        "admissible": m.admissible,
    }


def _interval_block(box: LinfBox, lo: np.ndarray, hi: np.ndarray) -> _Block:
    return _Block(box.frame, box.members, np.column_stack((lo, hi)))


def _payload_box(box: LinfBox, space: SpaceKind, vertices: bool) -> dict:
    payload = {"space": space.value, "distance": box.distances[math.inf]}
    if isinstance(box, ApproxBox):
        lo, hi, clipped = box.admissible_intervals()
        payload.update(
            intervals=_interval_block(box, box.lower, box.upper),
            admissible_intervals=_interval_block(box, lo, hi),
            admissible_clipped=clipped,
        )
    else:
        payload["gamma_intervals"] = _interval_block(box, box.lower, box.upper)
    payload["barycenter"] = _point_payload(box.point, box.focus)
    if vertices:
        payload["vertices"] = [_point_payload(corner, box.focus) for corner in box.corners()]
    return payload


def cmd_approximate(args: argparse.Namespace) -> int:
    norm, space, rep = args.norm, args.space, args.rep
    if rep is not None and not (norm == "l2" and space == "mass"):
        raise CliError("--rep applies only to --norm l2 --space mass", EXIT_FLAGS)
    if norm == "l2" and space == "mass" and rep is None:
        raise CliError("--norm l2 --space mass needs an explicit --rep {n1,n2}", EXIT_FLAGS)
    if args.vertices and norm != "linf":
        raise CliError("--vertices applies only to --norm linf", EXIT_FLAGS)
    if args.focus is None and not args.global_:
        raise CliError("pick --focus <element> or --global", EXIT_FLAGS)
    if args.focus is not None and args.global_:
        raise CliError("--focus and --global are mutually exclusive", EXIT_FLAGS)
    frame, m, echo = load_input(args.input)
    if args.focus is not None and args.focus not in frame.elements:
        raise CliError(f"unknown focus element {args.focus!r}", EXIT_FOCUS)
    if args.vertices:
        box_coords = (frame.n_subsets // 2) - 1
        if box_coords > MAX_VERTEX_COORDS:
            raise CliError("frame too large for vertex enumeration", EXIT_FLAGS)

    kind = SpaceKind.MASS_N1 if rep == "n1" else SpaceKind.MASS_N2
    if space == "belief":
        kind = SpaceKind.BELIEF
    p = NORMS[norm]
    cell = CELLS[p, kind]

    def payload(sol) -> dict:
        if isinstance(sol, LinfBox):
            return _payload_box(sol, kind, args.vertices)
        out = _point_payload(sol.point, sol.focus)
        out.update(space=kind.value, distance=sol.distances[p])
        if len(sol.distances) > 1:  # the focused transform prints both of its distances
            out.update({f"distance_l{q}": d for q, d in sol.distances.items()})
        return out

    doc = {
        "command": "approximate",
        "input": echo,
        "norm": norm,
        "space": space,
        "rep": rep,
    }
    if args.focus is not None:
        doc["focus"] = args.focus
        doc["result"] = payload(cell.solve(m, args.focus))
    else:
        result = cell.select(m)
        doc["focus"] = "global"
        doc["result"] = {
            "criterion": _element_block(frame, result.criterion_values),
            "optima": list(result.optima),
            "partials": {lbl: payload(cell.solve(m, lbl)) for lbl in result.optima},
        }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    frame, m, echo = load_input(args.input)
    belief = belief_from_mass(m)
    # pl(A) = b(frame) - b(complement A), exactly 0 when no focal set meets A,
    # where 1 - b(complement A) need not be; complementing reverses the order.
    plausibility = belief[-1] - belief[::-1]
    nonempty = np.arange(1, frame.n_subsets, dtype=np.int64)
    singletons = 1 << np.arange(frame.size, dtype=np.int64)
    core = core_of(m)
    doc = {
        "command": "inspect",
        "input": echo,
        "focal_elements": _mass_block(m, m.focal_masks()),
        "core": frame.format_subset(core),
        "consistent": core != 0,
        "belief": _Block(frame, nonempty, belief[1:]),
        "plausibility": _Block(frame, nonempty, plausibility[1:]),
        # the singletons' row of the plausibility block, so the two blocks agree
        "contour": _Block(frame, singletons, plausibility[singletons]),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import (
        FrameTooLargeError,
        OracleError,
        brute_force_partial,
        globals_agree,
        library_global,
    )

    frame, m, echo = load_input(args.input)
    labels = {p: norm for norm, p in NORMS.items()}
    reports = []
    checks = []
    for p, kind in CELLS:
        try:
            by_focus = {x: brute_force_partial(m, x, p, kind) for x in frame.elements}
        except FrameTooLargeError as exc:  # raised by the first call, before any output
            raise CliError(str(exc), EXIT_FRAME) from None
        except OracleError as exc:  # the report is written only once complete
            raise CliError(f"the oracle failed: {exc}", EXIT_ORACLE) from None
        head = {"norm": labels[p], "space": kind.value}
        reports += (
            {
                **head,
                "focus": x,
                "oracle_distance": rep.oracle_distance,
                "closed_form_distance": rep.closed_form_distance,
                "max_gap": rep.max_gap,
                "converged": rep.converged,
            }
            for x, rep in by_focus.items()
        )
        result = library_global(m, p, kind)
        checks.append(
            {
                **head,
                "library_optima": list(result.optima),
                "oracle_distances": _element_block(
                    frame, {x: rep.oracle_distance for x, rep in by_focus.items()}
                ),
                "agree": globals_agree(result, by_focus),
            }
        )
    all_ok = all(r["converged"] for r in reports) and all(c["agree"] for c in checks)
    doc = {
        "command": "verify",
        "input": echo,
        "config": {"match_tolerance": TOL},
        "reports": reports,
        "global_checks": checks,
        "all_ok": all_ok,
    }
    _emit(doc, args.out)
    return EXIT_OK if all_ok else EXIT_GAP


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csbf",
        description="Consistent approximations of belief functions under Lp norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approximate", help="partial or global consistent approximation")
    p_approx.add_argument("input", help="path to a JSON input document")
    p_approx.add_argument("--norm", choices=list(NORMS), required=True)
    p_approx.add_argument("--space", choices=["mass", "belief"], required=True)
    p_approx.add_argument("--rep", choices=["n1", "n2"], default=None,
                          help="mass embedding for --norm l2 --space mass")
    p_approx.add_argument("--focus", default=None, help="frame element to focus on")
    p_approx.add_argument("--global", dest="global_", action="store_true",
                          help="pick the globally optimal focus element(s)")
    p_approx.add_argument("--vertices", action="store_true",
                          help="list solution-box corners (linf only)")
    p_approx.add_argument("--out", default=None, help="write output here instead of stdout")
    p_approx.set_defaults(func=cmd_approximate)

    p_inspect = sub.add_parser("inspect", help="focal elements, core, belief and plausibility")
    p_inspect.add_argument("input")
    p_inspect.add_argument("--out", default=None)
    p_inspect.set_defaults(func=cmd_inspect)

    p_verify = sub.add_parser("verify", help="exact check of every closed form")
    p_verify.add_argument("input")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_MEMORY


def __getattr__(name: str) -> Any:
    """The oracle's entry points, loaded on first use: ``verify`` imports the
    oracle itself, and this resolves them as attributes of this module."""
    if name in ("brute_force_partial", "library_global"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def entry() -> None:
    """Process entry point of ``csbf`` and ``python -m csbf.cli``.

    Once :func:`main` returns, the call's output is complete, and the
    process ends through ``os._exit`` without interpreter teardown (clearing
    every module, freeing every numpy object).  That also skips the final
    flush of the standard streams and any ``atexit`` work, which loses
    nothing: :func:`_emit` flushes stdout after writing it (exits 0 and 1),
    and closes ``--out`` before :func:`main` returns; exits 2 to 8 write
    nothing to stdout, and the bytes a failed stdout write (exit 6) leaves
    in its buffer are dropped, not written again; stderr is flushed here;
    csbf registers no ``atexit`` work.  ``SystemExit`` from argument
    parsing (``--help``, bad flags) and uncaught exceptions take the normal
    exit.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
