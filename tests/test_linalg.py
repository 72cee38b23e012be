"""Exact matrices, determinants, and characteristic polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxtraces.field import GOLDEN, ONE, ZERO, FieldElement
from coxtraces.group import generate_group
from coxtraces.linalg import (Matrix, dot, lagrange_interpolate, poly_eval,
                              poly_mul, poly_str)
from coxtraces.roots import system_from_spec


def _f(n, d=1):
    return FieldElement(Fraction(n, d), Fraction(0))


def _int_matrix(rows):
    return Matrix(tuple(tuple(_f(x) for x in row) for row in rows))


small_ints = st.integers(min_value=-4, max_value=4)
int_matrices_3 = st.lists(
    st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3
).map(_int_matrix)

# a + b*sqrt5 with a, b over the denominators 1, 2, 3 and 6
small_fractions = st.builds(Fraction, st.integers(min_value=-5, max_value=5),
                            st.sampled_from([1, 2, 3, 6]))
field_elements = st.builds(FieldElement, small_fractions, small_fractions)


@st.composite
def field_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return Matrix(tuple(tuple(draw(field_elements) for _ in range(n))
                        for _ in range(n)))


def _interpolated_charpoly(m):
    """det(tI - M) from n + 1 determinants at t = 0, 1, -1, 2, -2, ...
    and Lagrange interpolation: an independent oracle for charpoly()."""
    n = m.nrows
    points = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(n + 1)]
    values = [(Matrix.identity(n).scale(FieldElement(t)) - m).det()
              for t in points]
    return lagrange_interpolate(points, values)


def test_dot_and_dimension_mismatch():
    assert dot((ONE, ZERO), (ONE, ONE)) == ONE
    with pytest.raises(ValueError):
        dot((ONE,), (ONE, ONE))


def test_identity_and_power():
    m = _int_matrix([[1, 1], [0, 1]])
    assert m ** 0 == Matrix.identity(2)
    assert m ** 3 == _int_matrix([[1, 3], [0, 1]])


def test_determinant_known_values():
    assert _int_matrix([[2, 0], [0, 3]]).det() == _f(6)
    assert _int_matrix([[1, 2], [2, 4]]).det() == _f(0)
    assert _int_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == _f(1)


@given(int_matrices_3, int_matrices_3)
def test_determinant_is_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


def test_charpoly_of_identity():
    # det(tI - I) = (t-1)^3, ascending coefficients
    coeffs = Matrix.identity(3).charpoly()
    assert coeffs == (_f(-1), _f(3), _f(-3), _f(1))


def test_charpoly_of_companion_matrix():
    # companion of t^3 - 2t - 1 has exactly that characteristic polynomial
    m = _int_matrix([[0, 0, 1], [1, 0, 2], [0, 1, 0]])
    assert m.charpoly() == (_f(-1), _f(-2), _f(0), _f(1))


def test_charpoly_with_irrational_entries():
    m = Matrix(((GOLDEN, ZERO), (ZERO, GOLDEN)))
    # det(tI - M) = (t - k)^2 = t^2 - 2k t + k^2
    assert m.charpoly() == (GOLDEN * GOLDEN, -(GOLDEN + GOLDEN), ONE)


@given(int_matrices_3)
def test_charpoly_constant_term_is_signed_det(m):
    coeffs = m.charpoly()
    assert coeffs[0] == -m.det()   # det(tI-M) at t=0 is (-1)^3 det(M)
    assert coeffs[3] == ONE
    assert coeffs[2] == -m.trace()


@given(field_matrices())
def test_charpoly_equals_the_interpolation_oracle(m):
    assert m.charpoly() == _interpolated_charpoly(m)


@pytest.mark.parametrize("spec", ["H3", "F4", "B2+I2(5)"])
def test_class_span_matrices_match_the_interpolation_oracle(spec):
    group = generate_group(system_from_spec(spec))
    for members in group.class_orbits():
        span = group.span_matrix_of(members[0])
        assert span.charpoly() == _interpolated_charpoly(span)


@given(st.lists(small_ints, min_size=1, max_size=6))
def test_interpolation_recovers_polynomial(int_coeffs):
    coeffs = tuple(_f(c) for c in int_coeffs)
    points = list(range(len(coeffs)))
    values = [poly_eval(coeffs, _f(x)) for x in points]
    recovered = lagrange_interpolate(points, values)
    padded = recovered + (ZERO,) * (len(coeffs) - len(recovered))
    assert padded == coeffs


def test_poly_mul_and_eval_agree():
    p = (_f(1), _f(2))        # 1 + 2t
    q = (_f(-3), _f(0), _f(1))  # t^2 - 3
    prod = poly_mul(p, q)
    at_two = poly_eval(prod, _f(2))
    assert at_two == poly_eval(p, _f(2)) * poly_eval(q, _f(2))


def test_poly_str_rendering():
    assert poly_str((_f(-1), _f(0), _f(1))) == "t^2 - 1"
    assert poly_str((_f(1), _f(2), _f(1))) == "t^2 + 2*t + 1"
    assert poly_str((ZERO,)) == "0"
    assert poly_str((GOLDEN, ONE)) == "t + (1/2+1/2*sqrt5)"
