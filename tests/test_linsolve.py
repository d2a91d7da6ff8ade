"""The exact feasibility kernel, checked for soundness and completeness."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpart import VerificationError
from hyperpart.linsolve import _pick, _to_int_row, feasible_point, is_feasible


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
    assert is_feasible([_to_int_row(*c) for c in constraints], 2) == (point is not None)


def test_pick_on_an_empty_interval_is_an_internal_fault():
    with pytest.raises(VerificationError):
        _pick((Fraction(1), False), (Fraction(0), False))
    with pytest.raises(VerificationError):
        _pick((Fraction(1), True), (Fraction(1), False))
