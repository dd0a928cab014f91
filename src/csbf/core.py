"""Frames, mass assignments, and belief/plausibility measures.

A frame is an ordered finite set of hypothesis labels.  Subsets of the frame
are represented throughout as integer bitmasks: bit ``i`` of the mask is set
exactly when element ``i`` of the frame belongs to the subset.  ``0`` is the
empty set and ``frame.full_mask`` is the whole frame.  All set functions
(mass, belief, plausibility) are indexed by these masks, which keeps subset,
superset, intersection and complement queries at single word operations and
makes the fast transforms over the subset lattice possible: zeta, Moebius
and superset sum are one sweep over the bit axes, each with its own
combining operation, and :func:`outside_sums` reads the zeta values at the
n coatoms alone, in one fold.
"""

from __future__ import annotations

import numbers
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

#: Hard cap on frame size so the full powerset stays enumerable.
MAX_FRAME_SIZE = 24

#: The one tolerance of masses and of their sums, norms and distances.
TOL = 1e-9


class EvidenceError(ValueError):
    """A frame, subset or mass assignment violates its invariants."""


class SpaceKind(str, Enum):
    """The coordinate embedding a distance is measured in (see :mod:`csbf.oracle`)."""

    MASS_N1 = "mass-n1"
    MASS_N2 = "mass-n2"
    BELIEF = "belief"


class FrozenRecord:
    """Base of the package's immutable value classes.

    The fields are the parameters of the subclass's ``__init__``, read back
    as attributes.  Equality, hashing and ``repr`` read the fields as a
    frozen dataclass's would, and assignment raises.  These are plain classes
    because a dataclass's generated methods cost about 1.2 ms per class at
    import, which every CLI call pays (2-vCPU Xeon VM, Python 3.11).
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, *values: object) -> None:
        vars(self).update(zip(self._fields, values, strict=True))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"


class Frame(FrozenRecord):
    """Ordered frame of discernment.

    The element order is canonical: it fixes the bit layout of subset masks
    and the coordinate order of every vector embedding built on top.
    """

    def __init__(self, elements: Iterable[str]) -> None:
        elements = tuple(elements)
        if not 1 <= len(elements) <= MAX_FRAME_SIZE:
            raise EvidenceError(
                f"frame must have between 1 and {MAX_FRAME_SIZE} elements, got {len(elements)}"
            )
        for label in elements:
            if not label or not isinstance(label, str):
                raise EvidenceError("frame elements must be nonempty strings")
            if "," in label or label != label.strip():
                raise EvidenceError(
                    f"frame element {label!r} may not contain commas or outer whitespace"
                )
        if len(set(elements)) != len(elements):
            raise EvidenceError("frame elements must be unique")
        # Label tables, kept out of the fields (so out of eq, hash and repr):
        # label -> bit, the text of every subset of the low and of the high
        # half of the elements (at most 2 * 2^12 strings), and the gather
        # tables built from them, one pair per (escape, before, after).
        low_bits = (len(elements) + 1) // 2
        self._set(elements)
        vars(self).update(
            _bits={lbl: 1 << i for i, lbl in enumerate(elements)},
            _low_bits=low_bits,
            _low_labels=_subset_labels(elements[:low_bits]),
            _high_labels=_subset_labels(elements[low_bits:]),
            _gather_tables={},
        )

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def n_subsets(self) -> int:
        """Number of subsets of the frame, including the empty set."""
        return 1 << len(self.elements)

    @property
    def full_mask(self) -> int:
        return self.n_subsets - 1

    def singleton(self, label: str) -> int:
        try:
            return self._bits[label]
        except (KeyError, TypeError):
            raise EvidenceError(f"unknown frame element {label!r}") from None

    def subset(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= self.singleton(label)
        return mask

    def format_subset(self, mask: int) -> str:
        """Canonical text form: labels comma-joined in frame order, '' for the empty set."""
        return self.format_subsets((mask,))[0]

    def format_subsets(self, masks: Sequence[int]) -> list[str]:
        """:meth:`format_subset` of each mask."""
        heads, tails = self.gather_texts(masks)
        return (heads + tails).tolist()

    def gather_texts(
        self, masks: Sequence[int], escape: Callable[[str], str] = str, before="", after=""
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two object arrays whose elementwise sums are ``before`` + each mask's text + ``after``.

        The texts come from the two half-frame label tables, two fancy
        indexes per call.  ``escape`` is applied once to each table entry and
        to the separating comma, and ``before`` and ``after`` are added to
        each low and each high entry (once per frame and argument triple),
        so the sums are the escaped texts when ``escape`` maps a
        concatenation to the concatenation of its images (as JSON string
        escaping does, without the quotes).
        """
        masks = np.asarray(masks, dtype=np.int64)
        if masks.size:
            self.check_mask(int(masks.min()))
            self.check_mask(int(masks.max()))
        tables = self._gather_tables.get((escape, before, after))
        if tables is None:
            low = [before + escape(text) for text in self._low_labels]
            sep = escape(",")
            # the low part of mask m is low[m & low_mask], followed by the
            # comma (second half of the table) when m has high-half labels too
            tables = self._gather_tables[escape, before, after] = (
                np.array(low + [before] + [text + sep for text in low[1:]], dtype=object),
                np.array([escape(text) + after for text in self._high_labels], dtype=object),
            )
        heads, tails = tables
        shift = self._low_bits
        high = masks >> shift
        return heads[(masks & ((1 << shift) - 1)) + (high != 0) * (1 << shift)], tails[high]

    def parse_subset(self, text: str) -> int:
        try:
            parts = text.split(",")
            mask = sum(map(self._bits.__getitem__, parts))
        except (AttributeError, TypeError):
            raise EvidenceError(f"subset key {text!r} is not a string") from None
        except KeyError:
            labels = [part.strip() for part in parts]
            if any(not lbl for lbl in labels):
                raise EvidenceError(f"malformed subset key {text!r}") from None
            if len(set(labels)) != len(labels):
                raise EvidenceError(f"subset key {text!r} repeats an element") from None
            return self.subset(labels)
        # distinct bits add without carries, so a repeat shows as lost bits
        if mask.bit_count() != len(parts):
            raise EvidenceError(f"subset key {text!r} repeats an element")
        return mask

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask < self.n_subsets:
            raise EvidenceError(f"subset mask {mask} out of range for frame of size {self.size}")


def _subset_labels(labels: tuple[str, ...]) -> list[str]:
    """Text of every subset of ``labels``, indexed by bitmask over them."""
    table = [""]
    for label in labels:
        table += [f"{text},{label}" if text else label for text in table]
    return table


def ultrafilter(frame: Frame, label: str) -> np.ndarray:
    """All subsets containing the given element, ascending, as a read-only int64 array.

    The full frame is always the last, largest mask.
    """
    members = split(np.arange(frame.n_subsets, dtype=np.int64), frame.singleton(label))[1].ravel()
    members.setflags(write=False)
    return members


def split(values: np.ndarray, xbit: int) -> tuple[np.ndarray, np.ndarray]:
    """2-D views of a mask-indexed vector on the masks without ``xbit`` and with it, each
    ascending in C order."""
    halves = values.reshape(-1, 2, xbit)
    return halves[:, 0, :], halves[:, 1, :]


# ---------------------------------------------------------------------------
# Lattice transforms.  Arrays are indexed by subset mask and must have
# power-of-two length; each transform is one O(N log N) sweep.
# ---------------------------------------------------------------------------


def _sweep(values: np.ndarray, op: np.ufunc) -> np.ndarray:
    """``op`` folded over the subsets of each mask, one pass per bit axis.

    Pass i sets ``out[A] = op(out[A], out[A minus i])`` for every A holding bit i.
    """
    out = np.array(values, dtype=float)
    n = out.size.bit_length() - 1
    if out.size != 1 << n:
        raise ValueError("array length must be a power of two")
    for i in range(n):
        v = out.reshape(-1, 2, 1 << i)
        op(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return out


def zeta_transform(values: np.ndarray) -> np.ndarray:
    """Cumulative subset sums: out[A] = sum of values[B] over B a subset of A."""
    return _sweep(values, np.add)


def mobius_transform(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zeta_transform`."""
    return _sweep(values, np.subtract)


def superset_sum_transform(values: np.ndarray) -> np.ndarray:
    """Cumulative superset sums: out[A] = sum of values[B] over B a superset of A.

    Complementing a mask reverses the index order, and the supersets of A are
    the complements of the subsets of A's complement.
    """
    return np.ascontiguousarray(_sweep(values[::-1], np.add)[::-1])


def fold(values: np.ndarray, op: np.ufunc = np.add) -> float:
    """``op`` folded over a power-of-two array in C order, pair by pair, lowest bit first."""
    while values.size > 1:  # the first reshape copies a :func:`split` half of rows of 2 or more
        values = op(*values.reshape(-1, 2).T)
    return values.item()


def outside_sums(values: np.ndarray, op: np.ufunc = np.add) -> np.ndarray:
    """``op`` folded over the subsets of ``x^c`` for each element x, in frame order, in O(2^n).

    Pass i reads element i as the :func:`fold` of the half of the running
    array without bit i, then folds bit i away.  The bits go in
    :func:`zeta_transform`'s order, so with ``np.add`` entry i is its value at
    ``x^c`` bit for bit, as is a :func:`fold` of :func:`split`'s half without x.
    """
    running = values
    sums = np.empty(values.size.bit_length() - 1)
    for i in range(sums.size):
        pairs = running.reshape(-1, 2)
        sums[i] = fold(pairs[:, 0], op)
        running = op(pairs[:, 0], pairs[:, 1])
    return sums


# ---------------------------------------------------------------------------
# Mass assignments.
# ---------------------------------------------------------------------------


class PseudoMassFunction(FrozenRecord):
    """Normalized set function on the frame, negative values allowed.

    Improper ("pseudo") assignments arise as intermediate products of the
    approximation machinery, e.g. corners of interval solution boxes.
    ``masses``, the vector indexed by subset mask (length 2^n) or a ``{mask:
    mass}`` mapping read by :func:`mass_vector`, is checked in one numpy pass
    and stored as a read-only copy of the vector (``-0.0`` as ``0.0``); the
    attribute ``masses`` holds its nonzero entries in ascending mask order.
    """

    __hash__ = None  # compared by value, but the masses map has no hash

    def __init__(self, frame: Frame, masses: Mapping[int, float] | np.ndarray) -> None:
        if isinstance(masses, Mapping):
            masses = mass_vector(frame, masses, _int_mask)
        vector = np.asarray(masses)
        if vector.dtype.kind not in "iuf" or vector.shape != (frame.n_subsets,):
            raise EvidenceError(
                f"a mass vector must hold {frame.n_subsets} reals, not {vector.dtype}{vector.shape}"
            )
        vector = vector.astype(float)
        if not np.isfinite(vector).all():
            mask = int(np.argmin(np.isfinite(vector)))
            text = frame.format_subset(mask)
            raise EvidenceError(f"mass of {text!r} is not finite: {float(vector[mask])!r}")
        if abs(vector[0]) > TOL:
            raise EvidenceError("the empty set may not carry mass")
        vector[0] = 0.0
        self._ingest(vector)
        vector += 0.0  # -0.0 + 0.0 is 0.0
        total = float(vector.sum())
        if abs(total - 1.0) > TOL:
            raise EvidenceError(f"mass values must sum to 1, got {total!r}")
        vector.setflags(write=False)
        vars(self).update(frame=frame, _vector=vector)

    def _ingest(self, vector: np.ndarray) -> None:
        """Check, and adjust in place, the finite masses this class admits."""

    @cached_property
    def masses(self) -> Mapping[int, float]:
        nonzero = np.flatnonzero(self._vector)
        return MappingProxyType(dict(zip(nonzero.tolist(), self._vector[nonzero].tolist())))

    def focal_masks(self) -> np.ndarray:
        """Masks carrying mass beyond numerical noise, ascending, as an int array."""
        return np.flatnonzero(np.abs(self._vector) > TOL)

    @property
    def admissible(self) -> bool:
        return bool((self._vector >= -TOL).all())

    def as_array(self) -> np.ndarray:
        """The stored mass vector, indexed by subset mask; read-only, the same array every call."""
        return self._vector

    @classmethod
    def from_labels(cls, frame: Frame, assignment: Mapping[object, float]):
        """Build from label-keyed masses; keys are comma strings or label iterables."""
        return cls(frame, mass_vector(frame, assignment, _label_mask))


def mass_vector(
    frame: Frame, assignment: Mapping, key_mask: Callable[[Frame, object], int]
) -> np.ndarray:
    """Dense mass vector of keyed masses; ``key_mask(frame, key)`` reads a key or raises.

    Each entry in turn is checked for its key, a subset already seen, a mass
    that is not a real number, an int too large for a float.  Non-finite
    floats pass, for the constructor to report.

    Unless the keys are integer masks, an assignment of one entry per
    nonempty subset is first read in bulk: when every value is a ``float``
    and the keys are the canonical subset texts in mask order (one list
    comparison), one assignment fills the vector.  Any other assignment
    takes the entry loop, which names the first fault.
    """
    vector = np.zeros(frame.n_subsets)
    # int masks are never subset texts: a text key there is _int_mask's error
    if key_mask is not _int_mask and len(assignment) == frame.n_subsets - 1:
        values = list(assignment.values())
        if set(map(type, values)) == {float} and list(assignment) == frame.format_subsets(
            np.arange(1, frame.n_subsets)
        ):
            vector[1:] = values
            return vector

    def name(key: object, mask: int) -> str:  # a string key as written, else its subset
        return key if isinstance(key, str) else frame.format_subset(mask)

    seen: set[int] = set()
    for key, value in assignment.items():
        mask = key_mask(frame, key)
        if mask in seen:
            raise EvidenceError(
                f"subset {name(key, mask)!r} appears twice: "
                f"duplicate subset {frame.format_subset(mask)!r}"
            )
        seen.add(mask)
        # numpy would parse strings, take None as NaN and True as 1.0
        if type(value) is not float and (type(value) is bool or not isinstance(value, numbers.Real)):
            raise EvidenceError(f"mass of {name(key, mask)!r} is not a number: {value!r}")
        try:
            vector[mask] = value
        except OverflowError:
            raise EvidenceError(f"mass of {name(key, mask)!r} is too large for a float") from None
    return vector


def clear_noise(vector: np.ndarray) -> None:
    """The one noise rule: zero, in place, the masses in ``[-TOL, 0)``."""
    vector[(vector < 0.0) & (vector >= -TOL)] = 0.0


def _label_mask(frame: Frame, key: object) -> int:
    """Mask of a :meth:`PseudoMassFunction.from_labels` key."""
    if isinstance(key, str):
        return frame.parse_subset(key)
    if not isinstance(key, Iterable):
        raise EvidenceError(f"subset key {key!r} is neither a string nor an iterable of labels")
    return frame.subset(key)


def _int_mask(frame: Frame, key: object) -> int:
    """Mask of a ``{mask: mass}`` key: an integer, not a ``bool``, in range."""
    if isinstance(key, bool) or not isinstance(key, numbers.Integral):
        raise EvidenceError(f"subset mask {key!r} is not an integer")
    frame.check_mask(key)
    return key


class MassFunction(PseudoMassFunction):
    """Basic probability assignment: nonnegative masses summing to one.

    Input values in ``[-TOL, 0)`` are noise, cleared by :func:`clear_noise`;
    anything more negative is rejected.
    """

    def _ingest(self, vector: np.ndarray) -> None:
        if vector.min() < -TOL:
            raise EvidenceError(f"negative mass {float(vector.min())!r}")
        clear_noise(vector)

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        return cls(frame, {frame.full_mask: 1.0})


def belief_from_mass(m: PseudoMassFunction) -> np.ndarray:
    """Belief b(A), the total mass of the subsets of A, of every A by mask: a fresh array."""
    return zeta_transform(m.as_array())


def core_of(m: PseudoMassFunction) -> int:
    """Intersection of all focal elements; 0 when they share no element."""
    return int(np.bitwise_and.reduce(m.focal_masks(), initial=m.frame.full_mask))


def contour(m: PseudoMassFunction) -> dict[str, float]:
    """Plausibility of each singleton: pl(x) = total mass of sets containing x."""
    # Builtin sum in ascending mask order, as a per-element loop over ``m.masses`` would.
    masks = np.flatnonzero(m.as_array())
    return {
        label: sum(m.as_array()[masks[masks >> i & 1 == 1]].tolist(), 0.0)
        for i, label in enumerate(m.frame.elements)
    }
