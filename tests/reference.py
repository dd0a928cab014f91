"""Every cell's answer in exact arithmetic, read from the focal sets alone.

It imports the standard library only, neither ``csbf`` nor numpy, so the
answer checks share no code with what they check.  A document is n and a
focal list ``{mask: mass}``: element i is bit i, and each mass a ``Fraction``
or a float, taken exactly.  Cells are keyed ``(p, space)``, as
``(math.inf, "mass-n2")``; ``SpaceKind`` is a ``str`` enum, so ``CELLS``
keys look these up.  For focus i, b is the mass of the focal sets B that
miss i, and M the largest such mass.  A subset of x^c holds B in
2^(n-1-|B|) ways, and both B and C in 2^(n-1-|B u C|).
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm


def _scaled(focal: dict) -> tuple[dict[int, int], int]:
    """The masses as integers over one common denominator, and that denominator: at 64
    focal sets, integer sums are 20-35 times faster (2-vCPU Xeon VM, Python 3.11)."""
    exact = {mask: Fraction(v) for mask, v in focal.items()}
    den = lcm(*(v.denominator for v in exact.values()))
    return {mask: v.numerator * (den // v.denominator) for mask, v in exact.items()}, den


def criteria(n: int, focal: dict) -> dict[tuple, list[Fraction]]:
    """(p, space) -> each element's exact criterion, in element order; L2's is squared."""
    scaled, den = _scaled(focal)
    k, rows = 1 << (n - 1), []
    for i in range(n):
        miss = [(b, v) for b, v in scaled.items() if not b >> i & 1]
        moved, squares = sum(v for _, v in miss), sum(v * v for _, v in miss)
        pairs = sum(v * w << n - 1 - (b | c).bit_count() for b, v in miss for c, w in miss)
        rows.append({
            (1, "mass-n2"): Fraction(moved, den),
            (2, "mass-n2"): Fraction(squares, den * den),
            (2, "mass-n1"): Fraction(squares * k + moved * moved, den * den * k),
            (inf, "mass-n2"): Fraction(max((v for _, v in miss), default=0), den),
            (1, "belief"): Fraction(sum(v << n - 1 - b.bit_count() for b, v in miss), den),
            (2, "belief"): Fraction(pairs, den * den),
            (inf, "belief"): Fraction(moved, den),
        })
    return {key: [row[key] for row in rows] for key in rows[0]}


def point(n: int, focal: dict, key: tuple, i: int) -> dict[int, Fraction]:
    """Cell ``key``'s exact point on focus i, the barycenter for Linf, as {A: mass} over
    the ultrafilter of i; every other mass is 0.  The mass cells keep m(A) and move b to
    the full frame, but mass-n1, which adds b / 2^(n-1) to every A; the belief cells are
    the focused transform, which maps B to B u {i}, so A gets m(A) + m(A minus i)."""
    (scaled, den), xbit, k, full = _scaled(focal), 1 << i, 1 << (n - 1), (1 << n) - 1
    get, moved = scaled.get, sum(v for b, v in scaled.items() if not b & xbit)
    members = [a for a in range(xbit, full + 1) if a & xbit]
    if key[1] == "belief":
        return {a: Fraction(get(a, 0) + get(a ^ xbit, 0), den) for a in members}
    if key[1] == "mass-n1":
        return {a: Fraction(get(a, 0) * k + moved, den * k) for a in members}
    return {a: Fraction(get(a, 0) + (moved if a == full else 0), den) for a in members}


def bounds(n: int, focal: dict, key: tuple, i: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Linf cell ``key``'s exact interval ends on focus i, as {A: (lower, upper)} over the
    ultrafilter of i but the full frame: m(A) -+ M in mass space, and -+b - b(A minus i)
    in belief space's gamma coordinates."""
    scaled, den = _scaled(focal)
    outside = [(b, v) for b, v in scaled.items() if not b >> i & 1]
    members = [a for a in range(1 << i, (1 << n) - 1) if a >> i & 1]
    if key[1] == "mass-n2":
        largest = max((v for _, v in outside), default=0)
        ends = {a: (scaled.get(a, 0) - largest, scaled.get(a, 0) + largest) for a in members}
    else:
        radius = sum(v for _, v in outside)
        inside = {a: sum(v for b, v in outside if not b & ~a) for a in members}  # b(A minus i)
        ends = {a: (-radius - inside[a], radius - inside[a]) for a in members}
    return {a: (Fraction(lo, den), Fraction(hi, den)) for a, (lo, hi) in ends.items()}
