"""Exact arithmetic in Q(sqrt 5)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from field import GOLDEN, HALF, ONE, SQRT5, ZERO, FieldElement

small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
elements = st.builds(FieldElement, small_fractions, small_fractions)
nonzero_elements = elements.filter(bool)


def test_golden_ratio_identities():
    assert GOLDEN * GOLDEN == GOLDEN + ONE
    assert GOLDEN.inverse() == GOLDEN - ONE
    assert GOLDEN * (GOLDEN - ONE) == ONE
    assert GOLDEN.to_int_tuple() == (1, 2, 1, 2)


def test_constants():
    assert ZERO + ONE == ONE
    assert HALF + HALF == ONE
    assert SQRT5 * SQRT5 == FieldElement.from_int(5)


def test_int_tuple_roundtrip():
    x = FieldElement(Fraction(3, 7), Fraction(-2, 5))
    assert FieldElement.from_int_tuple(x.to_int_tuple()) == x


def test_string_forms():
    assert str(FieldElement.from_int(3)) == "3"
    assert str(SQRT5) == "sqrt5"
    assert str(GOLDEN) == "1/2+1/2*sqrt5"
    assert str(FieldElement(Fraction(0), Fraction(-1))) == "-sqrt5"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_mixed_components():
    # a and b*sqrt5 pulling in opposite directions: the larger magnitude wins
    assert FieldElement(Fraction(3), Fraction(-1)).sign() == 1   # 3 > sqrt5
    assert FieldElement(Fraction(2), Fraction(-1)).sign() == -1  # 2 < sqrt5
    assert FieldElement(Fraction(-2), Fraction(1)).sign() == 1
    assert FieldElement(Fraction(-3), Fraction(1)).sign() == -1
    assert ZERO.sign() == 0


def test_ordering_against_decimal_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    sqrt5 = mpmath.sqrt(5)
    samples = [
        FieldElement(Fraction(a, d), Fraction(b, d))
        for a in range(-4, 5)
        for b in range(-4, 5)
        for d in (1, 2, 3)
    ]
    for x in samples:
        approx = mpmath.mpf(x.a.numerator) / x.a.denominator + \
            sqrt5 * x.b.numerator / x.b.denominator
        if x.sign() > 0:
            assert approx > 0
        elif x.sign() < 0:
            assert approx < 0
        else:
            assert x.a == 0 and x.b == 0


@given(elements, elements)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(elements, elements, elements)
def test_multiplication_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements, elements, elements)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(nonzero_elements)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == ONE
    assert x.inverse() == ONE / x


@given(elements)
def test_conjugation_fixes_norm(x):
    assert x * x.conjugate() == FieldElement(x.norm(), Fraction(0))
    assert x.conjugate().conjugate() == x


@given(elements, elements)
def test_order_is_total_and_compatible(x, y):
    assert (x < y) + (x == y) + (y < x) == 1
    if x < y:
        assert x + ONE < y + ONE
        assert float(x) <= float(y)  # float view agrees up to rounding


@given(elements, st.integers(min_value=0, max_value=6))
def test_power_matches_repeated_product(x, k):
    expected = ONE
    for _ in range(k):
        expected = expected * x
    assert x ** k == expected


@given(elements)
def test_rationality_detection(x):
    assert x.is_rational == (x.b == 0)
    if x.is_rational:
        assert hash(x) == hash(x.a)
