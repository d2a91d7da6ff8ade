"""Exact feasibility of linear inequality systems via Fourier-Motzkin elimination.

A row is a pair ``(coeffs, rhs)`` of integers, read as ``coeffs . x <= rhs``.
Strictness belongs to the whole system, not to a row: in a strict system
every row reads ``coeffs . x < rhs``.  Variables are eliminated in index
order; derived rows keep the order in which they are produced, so witnesses
are deterministic functions of the input row order.  Arithmetic is over
integers throughout: rows are reduced by their gcd, and back-substitution
compares bounds by cross-multiplication over one common denominator of the
values already fixed.  A rational is formed only for a chosen witness
coordinate.

Two entries, two eliminations.  ``feasible_point`` decides a closed or a
strict system and back-substitutes a witness from the full elimination,
which keeps every derived row but the looser of two parallel ones.
``infeasible_core`` only decides closed systems, for the partitionability
cross-check (one test per color grouping) and the inseparable-subset scan on
degenerate input, which would throw a witness away: a feasible system has no core,
None.  Each of its rows carries its origin set, the bitmask of the input rows
it was combined from, and after k eliminations a derived row with more than
k+1 origins is dropped (Chernikov's rule): it is implied by rows with fewer
origins, so the projection does not change.  A parallel row is dropped only
when a row at least as tight comes from a subset of its origins; keeping just
the tighter one would lose the rows that a pruned contradiction is built
from.  On a contradiction the origin set is a Farkas core: at most nvars+1
input rows that are infeasible alone, which for separation rows is an
inseparable subset of at most dim+2 points (Kirchberger).

Both eliminations step the same way.  At variable j every row's first j
coefficients are zero.  A row whose coefficient at j is zero too is carried
over as it is: it is reduced already, and distinct from the other rows.  Each
row with a positive coefficient at j is combined with each row with a
negative one over the variables after j only, since the combination's first
j+1 coefficients are zero by construction.  The combined rows, and the input
rows of either entry, pass in bulk through one reduction (``_reduced``: each
row divided by the gcd of its entries, a constant row settled) into the
path's merge of parallel rows: the witness path keeps the tighter
(``_keep_tighter``), the decide path goes by origin sets
(``_keep_by_origins``).

Only the decide path prunes.  The pruned stages have the same projections,
so back-substitution through them would pick the same values, but moving the
witness path (every enumeration) onto them waits on the benchmark harness: a
faster enumeration runs more passes in its fixed time and keeps each pass's
output, which reads as a memory regression.
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
    """Each ``(tail, rhs, origins)`` of ``rows`` as the row ``zeros + tail``
    divided by the gcd of its entries.  A constant row that holds (``0 <=
    rhs``, or ``0 < rhs`` in a strict system) is dropped; one that fails
    raises ``_Contradiction``."""
    for tail, rhs, origins in rows:
        g = gcd(*tail)
        if not g:
            if rhs < 0 or (rhs == 0 and strict):
                raise _Contradiction(origins)
            continue
        g = gcd(g, rhs)
        if g > 1:
            yield zeros + tuple([c // g for c in tail]), rhs // g, origins
        else:
            yield zeros + tuple(tail), rhs, origins


def _keep_tighter(rows, new) -> None:
    """Add the reduced rows of ``new`` to ``coeffs -> rhs``; of two parallel
    rows the tighter one is kept, in the place of the first."""
    for coeffs, rhs, _ in new:
        old = rows.get(coeffs)
        if old is None or rhs < old:
            rows[coeffs] = rhs


def _keep_by_origins(rows, new) -> None:
    """Add the reduced rows of ``new`` to ``coeffs -> [(rhs, origins)]``.  A
    row is dropped when a parallel row at least as tight comes from a subset
    of its origins, and it drops the parallel rows it dominates in the same
    way."""
    for coeffs, rhs, origins in new:
        kept = rows.get(coeffs)
        if kept is None:
            rows[coeffs] = [(rhs, origins)]
        elif not any(r <= rhs and not o & ~origins for r, o in kept):
            kept[:] = [(r, o) for r, o in kept if r < rhs or origins & ~o]
            kept.append((rhs, origins))


class _Contradiction(Exception):
    """A violated constant row, raised with the origin set it came from."""

    def __init__(self, origins: Optional[int]) -> None:
        super().__init__(origins)
        self.origins = origins


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
        ([a * n + b * p for p, n in zip(pt, nt)], a * nr + b * pr, None)
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


def _checked(rows_in: Iterable[IntRow], nvars: int) -> list[IntRow]:
    """The rows as a list, each checked to have ``nvars`` coefficients."""
    rows = list(rows_in)
    for coeffs, _ in rows:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
    return rows


def _load(rows_in: Iterable[IntRow], nvars: int, strict: bool) -> Optional[dict]:
    """The deduplicated system, or None if a constant row fails."""
    rows: dict = {}
    try:
        _keep_tighter(rows, _reduced(
            ((*row, None) for row in _checked(rows_in, nvars)), strict=strict
        ))
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


def _eliminate_traced(rows, j, limit):
    """Project out variable j, dropping derived rows with more than ``limit``
    origins; raises ``_Contradiction`` on a violated constant row."""
    out = {}
    pos, neg = [], []
    for coeffs, kept in rows.items():
        c = coeffs[j]
        if c > 0:
            pos.extend((c, coeffs[j + 1:], *row) for row in kept)
        elif c < 0:
            neg.extend((-c, coeffs[j + 1:], *row) for row in kept)
        else:
            out[coeffs] = list(kept)
    _keep_by_origins(out, _reduced((
        ([a * n + b * p for p, n in zip(pt, nt)], a * nr + b * pr, po | no)
        for a, pt, pr, po in pos
        for b, nt, nr, no in neg
        if (po | no).bit_count() <= limit
    ), (0,) * (j + 1)))
    return out


def _traced_core(rows: list, nvars: int) -> Optional[int]:
    """The origin set of a contradiction of the closed system, or None when
    it is feasible."""
    stage: dict = {}
    try:
        _keep_by_origins(stage, _reduced((*row, 1 << i) for i, row in enumerate(rows)))
        for j in range(nvars - 1):
            stage = _eliminate_traced(stage, j, j + 2)
        tightest = {coeffs: min(rhs for rhs, _ in kept) for coeffs, kept in stage.items()}
        if not _empty(*_interval(tightest, nvars - 1, ()), False):
            return None
        _eliminate_traced(stage, nvars - 1, nvars + 1)
    except _Contradiction as found:
        return found.origins
    raise VerificationError("empty last interval but no contradiction within the origin limit")


def infeasible_core(rows: Iterable[IntRow], nvars: int) -> Optional[tuple[int, ...]]:
    """Decide the closed system without building a witness: None when it is
    feasible, otherwise the increasing positions of at most nvars+1 input
    rows that are infeasible on their own."""
    rows = _checked(rows, nvars)
    origins = _traced_core(rows, nvars)
    if origins is None:
        return None
    return tuple(i for i in range(len(rows)) if origins >> i & 1)


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
