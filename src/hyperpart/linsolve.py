"""Exact feasibility of linear inequality systems via Fourier-Motzkin elimination.

A constraint is ``coeffs . x <= rhs`` (or ``< rhs`` when strict).  Variables are
eliminated in index order; derived constraints keep the order in which they are
produced, so witnesses are deterministic functions of the input constraint
order.  All arithmetic is over integers (rows are scaled to clear denominators
and reduced by their gcd), with rational values appearing only in the
back-substituted witness.

Two entries share the elimination: ``feasible_point`` accepts rows with
rational coefficients and back-substitutes a witness, while ``is_feasible``
takes rows already in integer form and only decides, for callers that scan
many small systems and would throw the witness away.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import VerificationError

IntRow = tuple[tuple[int, ...], int, bool]

_TRUE = 1    # row is trivially satisfied, drop it
_FALSE = 0   # row is unsatisfiable
_KEPT = 2


def scale_to_integers(values: Sequence) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with values == ints / den, den > 0 the lcm of the
    denominators of the values (ints or Fractions)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _to_int_row(coeffs: Sequence, rhs, strict: bool):
    ints, _ = scale_to_integers((*coeffs, rhs))
    return ints[:-1], ints[-1], strict


def _add_row(rows, index, coeffs, rhs, strict) -> int:
    """Insert a row with dominance dedup; returns _FALSE on a violated constant."""
    if not any(coeffs):
        if rhs < 0 or (rhs == 0 and strict):
            return _FALSE
        return _TRUE
    g = gcd(*coeffs, rhs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    pos = index.get(coeffs)
    if pos is None:
        index[coeffs] = len(rows)
        rows.append([coeffs, rhs, strict])
    else:
        old = rows[pos]
        # keep the tighter of two parallel constraints
        if rhs < old[1] or (rhs == old[1] and strict and not old[2]):
            old[1] = rhs
            old[2] = strict
    return _KEPT


def _eliminate(rows, j):
    """Project out variable j; returns the new row list or None if infeasible."""
    out, index = [], {}
    pos, neg = [], []
    for row in rows:
        c = row[0][j]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            if _add_row(out, index, row[0], row[1], row[2]) == _FALSE:
                return None
    for pc, pr, ps in pos:
        a = pc[j]
        for nc, nr, ns in neg:
            b = nc[j]  # b < 0
            coeffs = tuple(a * ni - b * pi for pi, ni in zip(pc, nc))
            if _add_row(out, index, coeffs, a * nr - b * pr, ps or ns) == _FALSE:
                return None
    return out


def _last_interval(rows, j):
    """Feasibility of the single remaining variable, in pure integer arithmetic.

    Returns (lo, up) as ((num, den, strict) | None) with den > 0, or None when
    the interval is empty.
    """
    lo = up = None
    for coeffs, rhs, strict in rows:
        c = coeffs[j]
        if c > 0:
            if up is None or rhs * up[1] < up[0] * c or (
                rhs * up[1] == up[0] * c and strict
            ):
                up = (rhs, c, strict)
        elif c < 0:
            num, den = -rhs, -c
            if lo is None or num * lo[1] > lo[0] * den or (
                num * lo[1] == lo[0] * den and strict
            ):
                lo = (num, den, strict)
    if lo is not None and up is not None:
        left, right = lo[0] * up[1], up[0] * lo[1]
        if left > right or (left == right and (lo[2] or up[2])):
            return None
    return lo, up


def _bounds(rows, j, values):
    """Lower/upper bounds on variable j once variables above j are fixed."""
    lo = up = None  # (value, strict)
    for coeffs, rhs, strict in rows:
        c = coeffs[j]
        if c == 0:
            continue
        rest = Fraction(rhs)
        for i in range(j + 1, len(coeffs)):
            if coeffs[i]:
                rest -= coeffs[i] * values[i]
        val = rest / c
        if c > 0:
            if up is None or val < up[0] or (val == up[0] and strict):
                up = (val, strict)
        else:
            if lo is None or val > lo[0] or (val == lo[0] and strict):
                lo = (val, strict)
    return lo, up


def _pick(lo, up) -> Fraction:
    if lo is None and up is None:
        return Fraction(0)
    if lo is None:
        return up[0] - 1
    if up is None:
        return lo[0] + 1
    if lo[0] < up[0]:
        return (lo[0] + up[0]) / 2
    if lo[0] == up[0] and not lo[1] and not up[1]:
        return lo[0]
    raise VerificationError("empty interval after feasible elimination")


def _load(rows_in: Iterable[IntRow], nvars: int) -> Optional[list]:
    """The deduplicated integer system, or None if a constant row fails."""
    rows, index = [], {}
    for coeffs, rhs, strict in rows_in:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
        if _add_row(rows, index, coeffs, rhs, strict) == _FALSE:
            return None
    return rows


def _elimination(rows: Optional[list], nvars: int) -> Optional[list]:
    """The system before each elimination step, or None if infeasible."""
    if rows is None:
        return None
    stages = []
    for j in range(nvars):
        stages.append(rows)
        if j == nvars - 1:
            return stages if _last_interval(rows, j) is not None else None
        rows = _eliminate(rows, j)
        if rows is None:
            return None
    return stages


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
    stages = _elimination(rows, nvars)
    if stages is None:
        return None
    values: list = [None] * nvars
    for j in range(nvars - 1, -1, -1):
        values[j] = _pick(*_bounds(stages[j], j, values))
    return tuple(values)
