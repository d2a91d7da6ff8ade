"""A fixed pure-Python task that times the machine rather than the program.

The benchmark runs ``task()`` around every job and divides job times by how
much slower than ``NOMINAL_S`` the task ran.  The task is the program's hot
loop written afresh: for a fixed set of nine rational points in 3-space it
decides, by Fourier-Motzkin elimination over integer rows with gcd reduction
and de-duplication of parallel rows, which of a fixed list of bipartitions a
plane strictly separates.  It uses no hyperpart code, so a change to the
program moves the job times and not the task, while a slower or busier
machine moves both alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# About the task's median time on the 2-core, Python 3.11 machine the
# benchmark was defined on.  It only scales the reported numbers to read like
# seconds there.
NOMINAL_S = 0.0170


def _points(n: int, seed: int) -> list[tuple[Fraction, ...]]:
    """``n`` points with coordinates p/q, |p| <= 32 and 1 <= q <= 4, drawn
    from a fixed LCG, as hyperpart's generator draws them."""
    points, x = [], seed
    for _ in range(n):
        coords = []
        for _ in range(3):
            x = (x * 1103515245 + 12345) % 2**31
            num = x % 65 - 32
            x = (x * 1103515245 + 12345) % 2**31
            coords.append(Fraction(num, x % 4 + 1))
        points.append(tuple(coords))
    return points


_POINTS = _points(9, 11)
# Bipartitions as bit masks of the side that must be positive.
_MASKS = (1, 54, 86, 171)


def _int_row(coeffs: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The row times the least common multiple of its denominators."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(c.numerator * (den // c.denominator) for c in coeffs)


def _separable(mask: int) -> bool:
    """Is there (w, b) with w.p > b on the mask's points and < b off it?"""
    rows = {}
    for i, p in enumerate(_POINTS):
        sign = -1 if mask >> i & 1 else 1
        row = _int_row(tuple(sign * c for c in p) + (Fraction(-sign), Fraction(-1)))
        rows[row[:-1]] = min(row[-1], rows.get(row[:-1], row[-1]))
    items = list(rows.items())
    for j in range(3):
        out: dict[tuple[int, ...], int] = {}
        pos, neg = [], []
        for coeffs, rhs in items:
            if coeffs[j] > 0:
                pos.append((coeffs, rhs))
            elif coeffs[j] < 0:
                neg.append((coeffs, rhs))
            else:
                out[coeffs] = min(rhs, out.get(coeffs, rhs))
        for pc, pr in pos:
            a = pc[j]
            for nc, nr in neg:
                b = nc[j]
                coeffs = tuple(a * ni - b * pi for pi, ni in zip(pc, nc))
                rhs = a * nr - b * pr
                if not any(coeffs):
                    if rhs < 0:
                        return False
                    continue
                g = gcd(*coeffs, rhs)
                if g > 1:
                    coeffs = tuple(c // g for c in coeffs)
                    rhs //= g
                old = out.get(coeffs)
                if old is None or rhs < old:
                    out[coeffs] = rhs
        items = list(out.items())
    lo = max((Fraction(-rhs, -c[3]) for c, rhs in items if c[3] < 0), default=None)
    up = min((Fraction(rhs, c[3]) for c, rhs in items if c[3] > 0), default=None)
    return lo is None or up is None or lo <= up


def task() -> tuple[int, ...]:
    """The masks of ``_MASKS`` whose bipartition a plane separates."""
    return tuple(mask for mask in _MASKS if _separable(mask))


# ``task()`` returns this; anything else means the interpreter is broken.
EXPECTED = (1, 86, 171)
