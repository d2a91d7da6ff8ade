"""Exact feasibility of linear inequality systems via Fourier-Motzkin elimination.

A constraint is ``coeffs . x <= rhs`` (or ``< rhs`` when strict).  Variables are
eliminated in index order; derived constraints keep the order in which they are
produced, so witnesses are deterministic functions of the input constraint
order.  Arithmetic is over integers throughout: rows are scaled to clear
denominators and reduced by their gcd, and back-substitution compares bounds
by cross-multiplication over one common denominator of the values already
fixed.  A rational is formed only for a chosen witness coordinate.

Two entries, two eliminations.  ``feasible_point`` accepts rows with rational
coefficients and back-substitutes a witness from the full elimination, which
keeps every derived row but the looser of two parallel ones.
``infeasible_core`` (and ``is_feasible``, which asks whether it is None) only
decides, for callers that scan many small systems and would throw a witness
away.  Each of its rows carries its origin set, the bitmask of the input rows
it was combined from, and after k eliminations a derived row with more than
k+1 origins is dropped (Chernikov's rule): it is implied by rows with fewer
origins, so the projection does not change.  A parallel row is dropped only
when a row at least as tight comes from a subset of its origins; keeping just
the tighter one would lose the rows that a pruned contradiction is built
from.  On a contradiction the origin set is a Farkas core: at most nvars+1
input rows that are infeasible alone, which for separation rows is an
inseparable subset of at most dim+2 points (Kirchberger).  Systems of mixed
strictness are decided without pruning and their core is shrunk to a minimal
infeasible subsystem, which Helly's theorem bounds by the same nvars+1.

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

IntRow = tuple[tuple[int, ...], int, bool]


def scale_to_integers(values: Sequence) -> tuple[tuple[int, ...], int]:
    """``(ints, den)`` with values == ints / den, den > 0 the lcm of the
    denominators of the values (ints or Fractions)."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _to_int_row(coeffs: Sequence, rhs, strict: bool):
    """The row over integers; a row already in integers is passed through."""
    if type(rhs) is int and all(type(c) is int for c in coeffs):
        return tuple(coeffs), rhs, strict
    ints, _ = scale_to_integers((*coeffs, rhs))
    return ints[:-1], ints[-1], strict


def _reduced(rows, zeros=()):
    """Each ``(tail, rhs, strict, origins)`` of ``rows`` as the row ``zeros +
    tail`` divided by the gcd of its entries.  A constant row that holds is
    dropped; one that fails raises ``_Contradiction``."""
    for tail, rhs, strict, origins in rows:
        g = gcd(*tail)
        if not g:
            if rhs < 0 or (rhs == 0 and strict):
                raise _Contradiction(origins)
            continue
        g = gcd(g, rhs)
        if g > 1:
            yield zeros + tuple([c // g for c in tail]), rhs // g, strict, origins
        else:
            yield zeros + tuple(tail), rhs, strict, origins


def _keep_tighter(rows, new) -> None:
    """Add the reduced rows of ``new`` to ``coeffs -> (rhs, strict)``; of two
    parallel rows the tighter one is kept, in the place of the first."""
    for coeffs, rhs, strict, _ in new:
        old = rows.get(coeffs)
        if old is None or rhs < old[0] or (rhs == old[0] and strict and not old[1]):
            rows[coeffs] = (rhs, strict)


def _keep_by_origins(rows, new) -> None:
    """Add the reduced rows of ``new`` to ``coeffs -> [(rhs, strict,
    origins)]``.  A row is dropped when a parallel row at least as tight
    comes from a subset of its origins, and it drops the parallel rows it
    dominates in the same way."""
    for coeffs, rhs, strict, origins in new:
        kept = rows.get(coeffs)
        if kept is None:
            rows[coeffs] = [(rhs, strict, origins)]
        elif not any(
            not o & ~origins and (r < rhs or (r == rhs and (s or not strict)))
            for r, s, o in kept
        ):
            kept[:] = [
                (r, s, o) for r, s, o in kept
                if origins & ~o or r < rhs or (r == rhs and s and not strict)
            ]
            kept.append((rhs, strict, origins))


class _Contradiction(Exception):
    """A violated constant row, raised with the origin set it came from."""

    def __init__(self, origins: Optional[int]) -> None:
        super().__init__(origins)
        self.origins = origins


def _eliminate(rows, j):
    """Project out variable j, carrying over the rows without it; raises
    ``_Contradiction`` when infeasible."""
    out = {}
    pos, neg = [], []
    for coeffs, (rhs, strict) in rows.items():
        c = coeffs[j]
        if c > 0:
            pos.append((c, coeffs[j + 1:], rhs, strict))
        elif c < 0:
            neg.append((-c, coeffs[j + 1:], rhs, strict))
        else:
            out[coeffs] = rhs, strict
    _keep_tighter(out, _reduced((
        ([a * n + b * p for p, n in zip(pt, nt)], a * nr + b * pr, ps or ns, None)
        for a, pt, pr, ps in pos
        for b, nt, nr, ns in neg
    ), (0,) * (j + 1)))
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


def _checked(rows_in: Iterable[IntRow], nvars: int) -> list[IntRow]:
    """The rows as a list, each checked to have ``nvars`` coefficients."""
    rows = list(rows_in)
    for coeffs, _, _ in rows:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
    return rows


def _load(rows_in: Iterable[IntRow], nvars: int) -> Optional[dict]:
    """The deduplicated integer system, or None if a constant row fails."""
    rows: dict = {}
    try:
        _keep_tighter(rows, _reduced((*row, None) for row in _checked(rows_in, nvars)))
    except _Contradiction:
        return None
    return rows


def _elimination(rows: Optional[dict], nvars: int) -> Optional[tuple]:
    """``(stages, bounds)``: the system before each elimination step but the
    last, and the bounds on the last variable; None if infeasible."""
    if rows is None:
        return None
    stages = []
    try:
        for j in range(nvars - 1):
            stages.append(rows)
            rows = _eliminate(rows, j)
    except _Contradiction:
        return None
    bounds = _interval(rows, nvars - 1, ())
    return None if _empty(*bounds) else (stages, bounds)


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
        ([a * n + b * p for p, n in zip(pt, nt)], a * nr + b * pr, ps or ns, po | no)
        for a, pt, pr, ps, po in pos
        for b, nt, nr, ns, no in neg
        if (po | no).bit_count() <= limit
    ), (0,) * (j + 1)))
    return out


def _traced_core(rows: list, nvars: int, prune: bool) -> Optional[int]:
    """The origin set of a contradiction, or None when the system is
    feasible.  Without ``prune`` no row is dropped for its origin count."""
    stage: dict = {}
    try:
        _keep_by_origins(stage, _reduced((*row, 1 << i) for i, row in enumerate(rows)))
        for j in range(nvars - 1):
            stage = _eliminate_traced(stage, j, j + 2 if prune else len(rows))
        tightest: dict = {}
        _keep_tighter(tightest, (
            (coeffs, rhs, strict, None) for coeffs, kept in stage.items() for rhs, strict, _ in kept
        ))
        if not _empty(*_interval(tightest, nvars - 1, ())):
            return None
        _eliminate_traced(stage, nvars - 1, nvars + 1 if prune else len(rows))
    except _Contradiction as found:
        return found.origins
    raise VerificationError("empty last interval but no contradiction within the origin limit")


def infeasible_core(rows: Iterable[IntRow], nvars: int) -> Optional[tuple[int, ...]]:
    """Decide the system without building a witness: None when it is
    feasible, otherwise the increasing positions of at most nvars+1 input
    rows that are infeasible on their own.

    Rows are ``(coeffs, rhs, strict)`` with integer coefficients and integer
    right-hand side, read as in ``feasible_point``.
    """
    rows = _checked(rows, nvars)
    uniform = len({strict for _, _, strict in rows}) < 2
    origins = _traced_core(rows, nvars, uniform)
    if origins is None:
        return None
    core = tuple(i for i in range(len(rows)) if origins >> i & 1)
    if uniform:
        return core
    # unpruned origin sets can be large: shrink to a minimal infeasible subsystem
    for i in core:
        rest = [p for p in core if p != i]
        smaller = infeasible_core([rows[p] for p in rest], nvars)
        if smaller is not None:
            return tuple(rest[q] for q in smaller)
    return core


def is_feasible(rows: Iterable[IntRow], nvars: int) -> bool:
    """Decide the system without building a witness (``infeasible_core``)."""
    return infeasible_core(rows, nvars) is None


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
