"""Exact feasibility of linear inequality systems via Fourier-Motzkin elimination.

A constraint is ``coeffs . x <= rhs`` (or ``< rhs`` when strict).  Variables are
eliminated in index order; derived constraints keep the order in which they are
produced, so witnesses are deterministic functions of the input constraint
order.  Arithmetic is over integers throughout: rows are scaled to clear
denominators and reduced by their gcd, and back-substitution compares bounds
by cross-multiplication over one common denominator of the values already
fixed.  A rational is formed only for a chosen witness coordinate.

Two entries share the elimination: ``feasible_point`` accepts rows with
rational coefficients and back-substitutes a witness, while ``is_feasible``
takes rows already in integer form and only decides, for callers that scan
many small systems and would throw the witness away.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import VerificationError

IntRow = tuple[tuple[int, ...], int, bool]


def scale_to_integers(values: Sequence) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with values == ints / den, den > 0 the lcm of the
    denominators of the values (ints or Fractions)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _to_int_row(coeffs: Sequence, rhs, strict: bool):
    ints, _ = scale_to_integers((*coeffs, rhs))
    return ints[:-1], ints[-1], strict


def _add_row(rows, coeffs, rhs, strict) -> bool:
    """Insert a row, keeping the tighter of two parallel ones; False on a
    violated constant row."""
    g = gcd(*coeffs)
    if g == 0:
        return rhs > 0 or (rhs == 0 and not strict)
    g = gcd(g, rhs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    old = rows.get(coeffs)
    if old is None or rhs < old[0] or (rhs == old[0] and strict and not old[1]):
        rows[coeffs] = (rhs, strict)  # a parallel row keeps its place
    return True


def _eliminate(rows, j):
    """Project out variable j; returns the new rows or None if infeasible."""
    out = {}
    pos, neg = [], []
    for coeffs, (rhs, strict) in rows.items():
        c = coeffs[j]
        if c > 0:
            pos.append((coeffs, rhs, strict))
        elif c < 0:
            neg.append((coeffs, rhs, strict))
        elif not _add_row(out, coeffs, rhs, strict):
            return None
    for pc, pr, ps in pos:
        a = pc[j]
        for nc, nr, ns in neg:
            b = nc[j]  # b < 0
            coeffs = tuple(a * ni - b * pi for pi, ni in zip(pc, nc))
            if not _add_row(out, coeffs, a * nr - b * pr, ps or ns):
                return None
    return out


def _interval(rows, j, values):
    """Bounds on variable j once the variables after it take ``values``.

    The fixed values are brought to one denominator, so every comparison is
    cross-multiplied in integers.  Returns (lo, up), each (num, den, strict)
    with den > 0, or None where unbounded; of two equal bounds the strict one
    is kept.
    """
    later, scale = scale_to_integers(values[j + 1:])
    lo = up = None
    for coeffs, (rhs, strict) in rows.items():
        c = coeffs[j] * scale
        if c == 0:
            continue
        num = rhs * scale - sum(map(mul, coeffs[j + 1:], later))
        if c > 0:
            if up is None or num * up[1] < up[0] * c or (
                num * up[1] == up[0] * c and strict
            ):
                up = (num, c, strict)
        else:
            num, c = -num, -c
            if lo is None or num * lo[1] > lo[0] * c or (
                num * lo[1] == lo[0] * c and strict
            ):
                lo = (num, c, strict)
    return lo, up


def _empty(lo, up) -> bool:
    if lo is None or up is None:
        return False
    left, right = lo[0] * up[1], up[0] * lo[1]
    return left > right or (left == right and (lo[2] or up[2]))


def _pick(lo, up) -> Fraction:
    """The chosen value: the midpoint, one past the single bound, or 0."""
    if _empty(lo, up):
        raise VerificationError("empty interval after feasible elimination")
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return Fraction(up[0] - up[1], up[1])
    if up is None:
        return Fraction(lo[0] + lo[1], lo[1])
    return Fraction(lo[0] * up[1] + up[0] * lo[1], 2 * lo[1] * up[1])


def _load(rows_in: Iterable[IntRow], nvars: int) -> Optional[dict]:
    """The deduplicated integer system, or None if a constant row fails."""
    rows: dict = {}
    for coeffs, rhs, strict in rows_in:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
        if not _add_row(rows, coeffs, rhs, strict):
            return None
    return rows


def _elimination(rows: Optional[dict], nvars: int) -> Optional[tuple]:
    """``(stages, bounds)``: the system before each elimination step but the
    last, and the bounds on the last variable; None if infeasible."""
    if rows is None:
        return None
    stages = []
    for j in range(nvars - 1):
        stages.append(rows)
        rows = _eliminate(rows, j)
        if rows is None:
            return None
    bounds = _interval(rows, nvars - 1, ())
    return None if _empty(*bounds) else (stages, bounds)


def is_feasible(rows: Iterable[IntRow], nvars: int) -> bool:
    """Decide the system without building a witness.

    Rows are ``(coeffs, rhs, strict)`` with integer coefficients and integer
    right-hand side, read as in ``feasible_point``.
    """
    return _elimination(_load(rows, nvars), nvars) is not None


def feasible_point(
    constraints: Iterable[tuple[Sequence, object, bool]], nvars: int
) -> Optional[tuple[Fraction, ...]]:
    """Return an exact rational solution of the system, or None if infeasible.

    Each constraint is ``(coeffs, rhs, strict)`` read as ``coeffs . x <= rhs``
    (strictly when the flag is set).  Coefficients may be ints or Fractions.
    """
    rows = _load(
        (_to_int_row(coeffs, rhs, strict) for coeffs, rhs, strict in constraints),
        nvars,
    )
    found = _elimination(rows, nvars)
    if found is None:
        return None
    stages, bounds = found
    values: list = [None] * nvars
    for j in range(nvars - 1, -1, -1):
        values[j] = _pick(*bounds)
        if j:
            bounds = _interval(stages[j - 1], j - 1, values)
    return tuple(values)
