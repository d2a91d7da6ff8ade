"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from hyperpart import general_position, make_config


@st.composite
def general_configs(draw):
    """Integer grid points kept while they stay in general position, d = 1 to
    3 and n = 1 to d+4, so n <= d and n = d+1 come up too."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, dim + 4))
    candidates = draw(
        st.lists(st.tuples(*[st.integers(-6, 6)] * dim), min_size=n, max_size=2 * n, unique=True)
    )
    kept: list = []
    for point in candidates:
        if len(kept) < n and general_position(make_config(dim, kept + [point])):
            kept.append(point)
    assume(kept)
    return make_config(dim, kept)


def _on_a_flat(draw, dim, flat, spread, off):
    """Three to six points base + sum of t_i u_i over ``flat`` nonzero
    directions u_i of a small integer grid (a lower flat when the directions
    are dependent), with distinct integer parameters t in [-spread, spread],
    and up to ``off`` further points of the grid, mostly off the flat."""
    small = st.tuples(*[st.integers(-2, 2)] * dim)
    base = draw(small)
    nonzero = small.map(lambda u: u if any(u) else (1,) + u[1:])
    directions = [draw(nonzero) for _ in range(flat)]
    params = draw(
        st.lists(st.tuples(*[st.integers(-spread, spread)] * flat), min_size=3, max_size=6, unique=True)
    )
    points = {
        tuple(b + sum(t * u[c] for t, u in zip(ts, directions)) for c, b in enumerate(base))
        for ts in params
    }
    return points | set(draw(st.lists(small, max_size=off)))


@st.composite
def degenerate_colored(draw, colors):
    """Points of a small integer grid, most of them on one flat: a line in R^2,
    a plane (or, with parallel directions, a line) in R^3.  Inseparable
    subsets then often need fewer than dim+2 points."""
    dim = draw(st.sampled_from((2, 3)))
    points = _on_a_flat(draw, dim, dim - 1, spread=2, off=3)
    assume(len(points) >= 3)
    labels = draw(st.lists(st.integers(0, colors - 1), min_size=len(points), max_size=len(points)))
    return make_config(dim, sorted(points), colors=labels)


@st.composite
def degenerate_configs(draw):
    """Configurations that are not in general position, d = 2 or 3 and n up to
    9: points of a 3^d integer grid; points on two or three lines, so that in
    R^3 every plane through three of them holds a whole line; or points on
    one line (in R^2 or R^3) or plane (in R^3) with at most two points off
    it.  With none off, the points do not span R^d, and with three or four of
    them n <= d+1."""
    dim = draw(st.sampled_from((2, 3)))
    small = st.tuples(*[st.integers(-2, 2)] * dim)
    kind = draw(st.sampled_from(("grid", "lines", "flat")))
    if kind == "grid":
        grid = st.tuples(*[st.integers(0, 2)] * dim)
        points = set(draw(st.lists(grid, min_size=3, max_size=8, unique=True)))
    elif kind == "lines":
        points = set()
        for _ in range(draw(st.integers(2, 3))):
            base, direction = draw(small), draw(small.filter(any))
            for t in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=3, unique=True)):
                points.add(tuple(b + t * u for b, u in zip(base, direction)))
    else:
        points = _on_a_flat(draw, dim, draw(st.integers(1, dim - 1)), spread=3, off=2)
    config = make_config(dim, sorted(points))
    assume(not general_position(config))
    return config
