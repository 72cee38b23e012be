"""Exact matrices, determinants, and characteristic polynomials."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxtraces.group import generate_group
from coxtraces.linalg import (Matrix, Ring, charpoly_from_traces,
                              coordinate_ring, poly_str)
from coxtraces.roots import system_from_spec
from field import (GOLDEN, ONE, ZERO, FieldElement, dot, from_golden,
                   gauss_det, poly_eval, poly_mul, to_golden)

INTEGERS, GOLDEN_RING = coordinate_ring(1), coordinate_ring(5)


def _f(n, d=1):
    return FieldElement(Fraction(n, d), Fraction(0))


def _int_matrix(rows):
    return Matrix(tuple(tuple((x,) for x in row) for row in rows), INTEGERS)


def _as_field(m):
    """The rows of a matrix over Z or Z[phi] as FieldElements."""
    return tuple(tuple(map(from_golden, row)) for row in m.rows)


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
    """Q(sqrt5) matrices, entering the library as Z[phi] matrices with
    rational coordinates."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = tuple(tuple(draw(field_elements) for _ in range(n))
                 for _ in range(n))
    return Matrix(tuple(tuple(map(to_golden, row)) for row in rows),
                  GOLDEN_RING)


def _lagrange_interpolate(points, values, ring) -> tuple:
    """Exact polynomial through (points[i], values[i]), for distinct int
    points and values in the ring; its coefficients have Fraction
    coordinates."""
    coeffs = [[Fraction(0)] * ring.d for _ in points]
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis, denom = [1], 1
        for j, xj in enumerate(points):
            if j != i:
                # multiply by t - xj
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        for k, a in enumerate(basis):
            for c, y in enumerate(yi):
                coeffs[k][c] += Fraction(a * y) / denom
    return tuple(map(tuple, coeffs))


def _laplace_det(ring, rows):
    """Determinant by Laplace expansion along the rows, memoized by the
    columns left: no division, so it serves every ring."""
    n = len(rows)

    @lru_cache(maxsize=None)
    def minor(r, cols):
        if r == n:
            return ring.one
        total = ring.zero
        for k, c in enumerate(cols):
            term = ring.mul(rows[r][c], minor(r + 1, cols[:k] + cols[k + 1:]))
            total = ring.sub(total, term if k % 2 else ring.neg(term))
        return total
    return minor(0, tuple(range(n)))


def _bareiss_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    work, sign, previous = [list(row) for row in rows], 1, 1
    n = len(work)
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((r for r in range(k + 1, n) if work[r][k]), None)
            if swap is None:
                return 0
            work[k], work[swap], sign = work[swap], work[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k]
                              - work[i][k] * work[k][j]) // previous
        previous = work[k][k]
    return sign * work[-1][-1] if n else 1


def _interpolated_charpoly(m):
    """det(tI - M) from n + 1 exact determinants at t = 0, 1, -1, 2, -2,
    ... and Lagrange interpolation: an independent oracle for charpoly().
    The determinants are Bareiss eliminations over Z for integer matrices,
    Gaussian eliminations in Q(sqrt5) (tests/field.py) over Z[phi], and
    Laplace expansions over the other rings."""
    ring, n = m.ring, m.nrows
    points = [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(n + 1)]
    values = []
    for t in points:
        shifted = [[ring.sub(ring.integer(t) if i == j else ring.zero, e)
                    for j, e in enumerate(row)] for i, row in enumerate(m.rows)]
        if ring.n == 1:
            values.append((_bareiss_det([[e[0] for e in row]
                                         for row in shifted]),))
        elif ring.n == 5:
            field_rows = [list(map(from_golden, row)) for row in shifted]
            values.append(to_golden(gauss_det(field_rows))[:ring.d])
        else:
            values.append(_laplace_det(ring, shifted))
    return _lagrange_interpolate(points, values, ring)


def test_dot_and_dimension_mismatch():
    assert dot((ONE, ZERO), (ONE, ONE)) == ONE
    with pytest.raises(ValueError):
        dot((ONE,), (ONE, ONE))


def test_identity_and_power():
    m = _int_matrix([[1, 1], [0, 1]])
    assert m ** 0 == Matrix.identity(2, INTEGERS)
    assert m ** 3 == _int_matrix([[1, 3], [0, 1]])


def test_determinant_known_values():
    assert _int_matrix([[2, 0], [0, 3]]).det() == (6,)
    assert _int_matrix([[1, 2], [2, 4]]).det() == (0,)
    assert _int_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == (1,)


@given(int_matrices_3, int_matrices_3)
def test_determinant_is_multiplicative(a, b):
    assert (a * b).det() == INTEGERS.mul(a.det(), b.det())


def test_charpoly_of_identity():
    # det(tI - I) = (t-1)^3, ascending coefficients
    coeffs = Matrix.identity(3, INTEGERS).charpoly()
    assert coeffs == ((-1,), (3,), (-3,), (1,))


def test_charpoly_of_companion_matrix():
    # companion of t^3 - 2t - 1 has exactly that characteristic polynomial
    m = _int_matrix([[0, 0, 1], [1, 0, 2], [0, 1, 0]])
    assert m.charpoly() == ((-1,), (-2,), (0,), (1,))


def test_charpoly_with_irrational_entries():
    phi, zero = (0, 1), GOLDEN_RING.zero
    m = Matrix(((phi, zero), (zero, phi)), GOLDEN_RING)
    # det(tI - M) = (t - k)^2 = t^2 - 2k t + k^2
    assert tuple(map(from_golden, m.charpoly())) == \
        (GOLDEN * GOLDEN, -(GOLDEN + GOLDEN), ONE)


@given(int_matrices_3)
def test_charpoly_constant_term_is_signed_det(m):
    coeffs = tuple(map(from_golden, m.charpoly()))
    rows = _as_field(m)
    # det(tI-M) at t=0 is (-1)^3 det(M)
    assert coeffs[0] == -gauss_det(rows)
    assert coeffs[3] == ONE
    assert coeffs[2] == -sum((rows[i][i] for i in range(3)), ZERO)


@given(field_matrices())
def test_det_equals_gaussian_elimination(m):
    assert from_golden(m.det()) == gauss_det(_as_field(m))


@given(field_matrices())
def test_charpoly_equals_the_interpolation_oracle(m):
    assert m.charpoly() == _interpolated_charpoly(m)


@pytest.mark.parametrize("spec", ["H3", "F4", "B2+I2(5)", "A7+A2",
                                  "H3+I2(7)", "I2(9)+I2(12)"])
def test_class_span_matrices_match_the_interpolation_oracle(spec):
    # Newton's identities on the power traces of each class representative,
    # read off its root permutation and off its span matrix, against
    # determinants
    group = generate_group(system_from_spec(spec))
    ring = group.system.ring
    for rep, _ in group.class_orbits():
        span = group.span_matrix_of(rep)
        from_perm = charpoly_from_traces(ring, group.power_traces(rep))
        assert from_perm == span.charpoly() == _interpolated_charpoly(span)


def test_charpoly_from_traces_refuses_an_inexact_newton_step():
    # p = (1, 0) gives c_1 = -1 and 2 c_2 = -(c_1 p_1 + p_2) = 1
    with pytest.raises(RuntimeError, match="not exact"):
        charpoly_from_traces(Ring(1), ((1,), (0,)))
    # in Q the same traces are those of a rational matrix
    assert charpoly_from_traces(Ring(1), ((Fraction(1),), (Fraction(0),))) \
        == ((Fraction(1, 2),), (-1,), (1,))


@given(st.lists(small_ints, min_size=1, max_size=6))
def test_interpolation_recovers_polynomial(int_coeffs):
    points = list(range(len(int_coeffs)))
    values = [(sum(c * x ** k for k, c in enumerate(int_coeffs)),)
              for x in points]
    recovered = _lagrange_interpolate(points, values, INTEGERS)
    assert recovered == tuple((c,) for c in int_coeffs)


def test_poly_mul_and_eval_agree():
    p = (_f(1), _f(2))        # 1 + 2t
    q = (_f(-3), _f(0), _f(1))  # t^2 - 3
    prod = poly_mul(p, q)
    at_two = poly_eval(prod, _f(2))
    assert at_two == poly_eval(p, _f(2)) * poly_eval(q, _f(2))


def test_poly_str_rendering():
    assert poly_str((-1, 0, 1)) == "t^2 - 1"
    assert poly_str((1, 2, 1)) == "t^2 + 2*t + 1"
    assert poly_str((0,)) == "0"
    assert poly_str(((0, 1), (1, 0)), text=GOLDEN_RING.text) == \
        "t + (1/2+1/2*sqrt5)"


def _value(ring, e) -> float:
    eta = 2 * math.cos(math.pi / ring.n)
    return sum(x * eta ** j for j, x in enumerate(e))


def _euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", [1, 4, 5, 6, 7, 8, 9, 12, 15, 35, 64, 127])
def test_ring_is_reduced_by_the_minimal_polynomial_of_eta(n):
    ring = Ring(n)
    # degree phi(2N)/2, and eta^d reduces to a value equal to eta^d
    assert ring.d == (1 if n == 1 else _euler_phi(2 * n) // 2)
    top = ring.reduce([0] * ring.d + [1] + [0] * (ring.d - 1))
    assert _value(ring, top) == pytest.approx(_value(ring, ring.eta) ** ring.d,
                                              rel=1e-9, abs=1e-9)
    for k in (2, 3) + tuple(k for k in range(4, n + 1) if n % k == 0):
        assert _value(ring, ring.two_cos(k)) == \
            pytest.approx(2 * math.cos(math.pi / k), abs=1e-9), (n, k)


golden_pairs = st.tuples(small_ints, small_ints)


@given(st.lists(st.tuples(golden_pairs, golden_pairs), max_size=4))
def test_golden_ring_dot_is_the_phi_squared_rule(pairs):
    # N = 5: x + y*phi with phi^2 = phi + 1, as the earlier pair arithmetic
    ring = coordinate_ring(5)
    sx = sy = 0
    for (x, y), (u, w) in pairs:
        sx += x * u + y * w
        sy += x * w + y * u + y * w
    assert ring.dot([p for p, _ in pairs], [q for _, q in pairs]) == (sx, sy)


@given(st.lists(st.tuples(*[small_ints] * 6), min_size=2, max_size=2))
def test_ring_product_is_associative_and_commutative(pair):
    ring = coordinate_ring(9)   # degree 3
    a, b = pair[0][:3], pair[1][:3]
    c = pair[0][3:]
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert _value(ring, ring.mul(a, b)) == \
        pytest.approx(_value(ring, a) * _value(ring, b), abs=1e-6)


def test_ring_text_and_json_forms():
    golden, wide = coordinate_ring(5), coordinate_ring(7)
    assert golden.text((1, 1)) == str(1 + GOLDEN) == "3/2+1/2*sqrt5"
    assert golden.as_json((0, 1)) == list(GOLDEN.to_int_tuple())
    assert wide.text((-1, 2, 1)) == "c7^2 + 2*c7 - 1"
    assert wide.text(wide.zero) == "0" and wide.text(wide.integer(-3)) == "-3"
    assert wide.as_json((-1, 2, 1)) == [-1, 2, 1]


@given(golden_pairs)
def test_golden_text_and_json_match_the_field_oracle(e):
    # the printed a+b*sqrt5 forms of N = 1 and 5 are the oracle's
    x = from_golden(e)
    assert GOLDEN_RING.text(e) == str(x)
    assert GOLDEN_RING.as_json(e) == list(x.to_int_tuple())
    assert INTEGERS.text(e[:1]) == str(from_golden(e[:1]))
    assert INTEGERS.as_json(e[:1]) == list(from_golden(e[:1]).to_int_tuple())
