"""The exact feasibility kernel, checked for soundness and completeness."""

from __future__ import annotations

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hyperpart import Point, VerificationError
from hyperpart.linsolve import (
    _elimination,
    _load,
    _pick,
    _to_int_row,
    _traced_core,
    feasible_point,
    infeasible_core,
)
from test_colorful import _degenerate_colored


def _satisfies(point, constraints) -> bool:
    for coeffs, rhs, strict in constraints:
        value = sum(c * x for c, x in zip(coeffs, point))
        if value > rhs or (strict and value == rhs):
            return False
    return True


def test_simple_interval():
    point = feasible_point([((1,), 3, False), ((-1,), -1, False)], 1)
    assert point is not None and 1 <= point[0] <= 3


def test_strict_boundaries_feasible():
    point = feasible_point([((1,), 2, True), ((-1,), -1, True)], 1)
    assert point is not None and 1 < point[0] < 2


def test_strict_point_infeasible():
    # x < 1 and x > 1 leave nothing, even though x = 1 closes both.
    assert feasible_point([((1,), 1, True), ((-1,), -1, True)], 1) is None


def test_closed_point_feasible():
    point = feasible_point([((1,), 1, False), ((-1,), -1, False)], 1)
    assert point == (Fraction(1),)


def test_obviously_contradictory():
    assert feasible_point([((1, 0), 0, False), ((-1, 0), -1, False)], 2) is None


def test_no_constraints_returns_a_point():
    assert feasible_point([], 3) is not None


def test_zero_rows_are_tautologies_or_contradictions():
    assert feasible_point([((0, 0), 1, False)], 2) is not None
    assert feasible_point([((0, 0), 0, True)], 2) is None
    assert feasible_point([((0, 0), -1, False)], 2) is None


def test_equality_encoded_as_two_inequalities():
    constraints = [
        ((2, 3), 6, False),
        ((-2, -3), -6, False),
        ((1, 0), 100, False),
    ]
    point = feasible_point(constraints, 2)
    assert point is not None
    assert 2 * point[0] + 3 * point[1] == 6


def test_deterministic():
    constraints = [((1, 1), 5, True), ((-1, 2), 3, False)]
    assert feasible_point(constraints, 2) == feasible_point(constraints, 2)


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.lists(_coeff, min_size=nvars, max_size=nvars).map(tuple),
            st.lists(
                st.tuples(
                    st.lists(_coeff, min_size=nvars, max_size=nvars).map(tuple),
                    st.fractions(min_value=0, max_value=5, max_denominator=3),
                    st.booleans(),
                ),
                max_size=6,
            ),
        )
    )
)
def test_known_feasible_systems_are_found(case):
    """Constraints built to hold at a planted point must be satisfiable, and
    the returned point must satisfy every constraint it was given."""
    nvars, planted, raw = case
    constraints = []
    for coeffs, slack, strict in raw:
        value = sum(c * x for c, x in zip(coeffs, planted))
        if strict and slack == 0:
            slack = Fraction(1, 7)
        constraints.append((coeffs, value + slack, strict))
    point = feasible_point(constraints, nvars)
    assert point is not None
    assert _satisfies(point, constraints)


@given(
    st.lists(
        st.tuples(
            st.lists(_coeff, min_size=2, max_size=2).map(tuple),
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            st.booleans(),
        ),
        max_size=5,
    )
)
def test_returned_points_always_satisfy(constraints):
    point = feasible_point(constraints, 2)
    if point is not None:
        assert _satisfies(point, constraints)
    assert (infeasible_core([_to_int_row(*c) for c in constraints], 2) is None) == (point is not None)


def test_pick_on_an_empty_interval_is_an_internal_fault():
    with pytest.raises(VerificationError):
        _pick((1, 1, False), (0, 1, False))
    with pytest.raises(VerificationError):
        _pick((1, 1, True), (1, 1, False))


def _point_strategy(dim):
    """Points of a small integer grid, many on one line (and in R^3 on one
    plane), each coordinate vector divided by a small denominator."""
    grid = st.integers(min_value=-3, max_value=3)
    vector = st.tuples(*[grid] * dim)
    coeff = st.integers(min_value=-2, max_value=2)
    return st.tuples(
        vector,
        st.lists(vector, min_size=2, max_size=2),
        st.lists(st.tuples(coeff, coeff), min_size=3, max_size=6),
        st.lists(vector, max_size=3),
        st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4),
    ).map(lambda case: _flat_points(dim, *case))


def _flat_points(dim, origin, spans, steps, free, dens):
    # steps move along the first span only in R^2 (a line), along both in
    # R^3 (a plane, with the line among its points); the flat points share one
    # denominator, which keeps them on their flat, the free points take their own
    flat = [
        tuple(o + s * u + (t * v if dim == 3 else 0) for o, u, v in zip(origin, *spans))
        for s, t in steps
    ]
    coords = {}
    for vec, den in zip(flat + free, [dens[0]] * len(flat) + dens[1:]):
        coords.setdefault(tuple(Fraction(x, den) for x in vec), None)
    return [Point(i, c) for i, c in enumerate(coords)]


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            _point_strategy(dim),
            st.lists(st.booleans(), min_size=9, max_size=9),
        )
    )
)
@settings(max_examples=300)
def test_separation_systems_match_the_fraction_kernel(case):
    """Strict separation of degenerate point sets: the same witness as the
    Fraction back-substitution, value for value, and the same decision."""
    dim, points, sides = case
    rows = [p.separation_rows[0 if positive else 1] for p, positive in zip(points, sides)]
    expected = oracles.fraction_feasible_point(rows, dim + 1)
    assert feasible_point(rows, dim + 1) == expected
    assert (infeasible_core(rows, dim + 1) is None) == (expected is not None)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.lists(_small, min_size=nvars, max_size=nvars),
            st.lists(
                st.tuples(
                    st.lists(_small, min_size=nvars, max_size=nvars),
                    st.sampled_from([-1, 0, 0, 1, Fraction(1, 2)]),
                    st.booleans(),
                    st.lists(
                        st.tuples(
                            st.sampled_from([1, 2, 3, Fraction(1, 2)]),
                            st.sampled_from([-1, 0, 0, 1]),
                            st.booleans(),
                        ),
                        max_size=2,
                    ),
                ),
                max_size=6,
            ),
        )
    )
)
def test_mixed_systems_match_the_fraction_kernel(case):
    """Rational rows near a planted point, both strictnesses, each with
    positive multiples whose right-hand sides move by -1, 0 or 1 (parallel
    rows for the dedup to merge): the same witness and decision as the
    Fraction back-substitution."""
    nvars, planted, raw = case
    constraints = []
    for coeffs, slack, strict, copies in raw:
        rhs = sum(c * x for c, x in zip(coeffs, planted)) + slack
        constraints.append((tuple(coeffs), rhs, strict))
        for factor, shift, copy_strict in copies:
            constraints.append(
                (tuple(factor * c for c in coeffs), factor * rhs + shift, copy_strict)
            )
    expected = oracles.fraction_feasible_point(constraints, nvars)
    assert feasible_point(constraints, nvars) == expected
    rows = [_to_int_row(*c) for c in constraints]
    assert (infeasible_core(rows, nvars) is None) == (expected is not None)


def test_parallel_dedup_trap_stays_infeasible():
    """Positive side (-3,1), (-2,1), (1,1), negative side (-1,1): the
    negative point lies between two positive ones on the line y = 1.

    A pruning rule that drops derived rows by the size of their origin sets
    must not rely on the keep-the-tighter merge of parallel rows: here the
    row from points {0, 2} merges into the tighter parallel row from {1, 2},
    so the size-3 contradiction {0, 2, 3} is never formed and the system
    reads feasible."""
    pos = [Point(i, xy) for i, xy in enumerate([(-3, 1), (-2, 1), (1, 1)])]
    rows = [p.separation_rows[0] for p in pos] + [Point(3, (-1, 1)).separation_rows[1]]
    assert feasible_point(rows, 3) is None
    assert infeasible_core(rows, 3) == (0, 2, 3)


def _unpruned_feasible(rows, nvars) -> bool:
    return _elimination(_load(rows, nvars), nvars) is not None


def _check_core(rows, nvars, core) -> None:
    """A core is at most nvars+1 increasing positions whose rows alone are
    infeasible under the unpruned elimination."""
    assert len(core) <= nvars + 1
    assert list(core) == sorted(set(core)) and all(0 <= i < len(rows) for i in core)
    assert not _unpruned_feasible([rows[i] for i in core], nvars)


@given(
    st.sampled_from([2, 3]).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            _point_strategy(dim),
            st.lists(st.booleans(), min_size=9, max_size=9),
        )
    )
)
@settings(max_examples=120)
def test_pruned_decisions_match_on_degenerate_separation_systems(case):
    """Separation rows of point sets with many points on a line or a plane:
    the pruned decision agrees with the unpruned elimination and with the
    sympy hull oracle, and a core is a Kirchberger subset of at most dim+2
    points whose two sides are inseparable."""
    dim, points, sides = case
    rows = [p.separation_rows[0 if positive else 1] for p, positive in zip(points, sides)]
    core = infeasible_core(rows, dim + 1)
    plus = [p.coords for p, positive in zip(points, sides) if positive]
    minus = [p.coords for p, positive in zip(points, sides) if not positive]
    separable = not plus or not minus or oracles.strictly_separable(plus, minus)
    assert (core is None) == separable == _unpruned_feasible(rows, dim + 1)
    if core is not None:
        _check_core(rows, dim + 1, core)
        picked = [(points[i].coords, sides[i]) for i in core]
        assert not oracles.strictly_separable(
            [c for c, positive in picked if positive],
            [c for c, positive in picked if not positive],
        )


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.lists(st.integers(min_value=-2, max_value=2), min_size=nvars, max_size=nvars),
            st.lists(
                st.tuples(
                    st.lists(st.integers(min_value=-3, max_value=3), min_size=nvars, max_size=nvars),
                    st.sampled_from([-2, -1, 0, 0, 1]),
                    st.booleans(),
                ),
                max_size=9,
            ),
        )
    )
)
@settings(max_examples=300)
def test_cores_of_mixed_and_uniform_systems(case):
    """Integer rows near a planted point, with either strictness: the
    decision agrees with the unpruned elimination, and a core of a mixed
    system (shrunk from the unpruned origin set) obeys the same bound as a
    pruned one."""
    nvars, planted, raw = case
    rows = [
        (tuple(coeffs), sum(c * x for c, x in zip(coeffs, planted)) + slack, strict)
        for coeffs, slack, strict in raw
    ]
    core = infeasible_core(rows, nvars)
    assert (core is None) == _unpruned_feasible(rows, nvars)
    if core is not None:
        _check_core(rows, nvars, core)


def test_core_of_a_violated_constant_row_is_that_row():
    rows = [((1, 0), 5, False), ((0, 0), -1, False), ((0, 1), 5, True)]
    assert infeasible_core(rows, 2) == (1,)
    assert infeasible_core([((1,), 1, True), ((-1,), -1, True)], 1) == (0, 1)
    assert infeasible_core([], 2) is None


def test_integer_rows_are_not_rescaled():
    row = ((2, -4), 6, True)
    assert _to_int_row(*row) == row
    assert _to_int_row((Fraction(1, 2), 1), Fraction(3, 4), False) == ((2, 4), 3, False)


# --- the elimination loops against the reference loops ---------------------

_LOOP_COEFF = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])


@st.composite
def _loop_systems(draw):
    """Integer systems in 1 to 4 variables for every branch of the loops:
    rows with zeros at the variables eliminated first, exact duplicates and
    positive multiples, a pair that becomes a violated constant row when its
    first variable is eliminated (or, for the last variable, an empty
    interval), a constant row, and uniform or mixed strictness."""
    nvars = draw(st.integers(1, 4))
    planted = draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars))
    mode = draw(st.sampled_from([False, True, None]))  # None: mixed strictness
    strictness = st.booleans() if mode is None else st.just(mode)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = tuple(draw(st.lists(_LOOP_COEFF, min_size=nvars, max_size=nvars)))
        rhs = sum(map(mul, coeffs, planted)) + draw(st.sampled_from([-2, -1, 0, 0, 1, 2]))
        rows.append((coeffs, rhs, draw(strictness)))
        if draw(st.booleans()):
            factor = draw(st.sampled_from([1, 1, 2, 3]))
            shift = draw(st.sampled_from([-1, 0, 0, 1]))
            rows.append((tuple(factor * c for c in coeffs), factor * rhs + shift, draw(strictness)))
    if draw(st.booleans()):
        # u.x <= r and -u.x <= -r - gap sum to 0 <= -gap at variable `first`
        first = draw(st.integers(0, nvars - 1))
        rest = draw(st.lists(_LOOP_COEFF, min_size=nvars - first - 1, max_size=nvars - first - 1))
        u = (0,) * first + (draw(st.integers(1, 3)),) + tuple(rest)
        r, gap = draw(st.integers(-3, 3)), draw(st.integers(0, 2))
        rows += [(u, r, draw(strictness)), (tuple(-c for c in u), -r - gap, draw(strictness))]
    if draw(st.booleans()):
        rows.append(((0,) * nvars, draw(st.integers(-1, 1)), draw(strictness)))
    return nvars, draw(st.permutations(rows))


def _outcome(solve, *args):
    """What a solver returns, or the fault it raises."""
    try:
        return solve(*args)
    except VerificationError as err:
        return repr(err)


@settings(max_examples=400)
@given(
    _loop_systems()
    | _degenerate_colored(colors=2).map(
        lambda cfg: (cfg.dim + 1, [p.separation_rows[c] for p, c in zip(cfg.points, cfg.colors)])
    )
)
def test_elimination_loops_match_the_reference_loops(case):
    """The same rows in the same order at every stage, the same point, and
    the same Farkas core (cores steer the grouping table's pruning), pruned
    or not, as the loops that inserted one row per call."""
    nvars, rows = case
    found = _elimination(_load(rows, nvars), nvars)
    expected = oracles.int_elimination(rows, nvars)
    assert (found is None) == (expected is None)
    if found is not None:
        assert [list(stage.items()) for stage in found[0]] == [
            list(stage.items()) for stage in expected[0]
        ]
        assert found[1] == expected[1]
    assert feasible_point(rows, nvars) == oracles.int_feasible_point(rows, nvars)
    assert infeasible_core(rows, nvars) == oracles.int_infeasible_core(rows, nvars)
    for prune in (False, True):
        assert _outcome(_traced_core, rows, nvars, prune) == _outcome(
            oracles._int_traced_core, rows, nvars, prune
        )
