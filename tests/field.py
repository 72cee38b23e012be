"""Test oracle: exact arithmetic in the quadratic field Q(sqrt5).

This is the number type of the oracles (the ambient root models, the
quaternions, the Gaussian-elimination determinant and the interpolation
charpoly), and it shares nothing with the library's ring Z[2cos(pi/N)]
(coxtraces.linalg.Ring).  Vectors are tuples of FieldElements and
matrices are tuples of rows.  from_golden and to_golden translate
between a + b*sqrt5 and the library's coordinates (x, y) of x + y*phi,
so that the two can be compared.  The rational parts are stdlib
Fractions (arbitrary precision, always in lowest terms with positive
denominator).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build a field element from {value!r}")


@total_ordering
class FieldElement:
    """Number of the form a + b*sqrt(5) with exact rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "FieldElement":
        return cls(n, 0)

    @classmethod
    def from_int_tuple(cls, parts) -> "FieldElement":
        a_num, a_den, b_num, b_den = parts
        return cls(Fraction(a_num, a_den), Fraction(b_num, b_den))

    def to_int_tuple(self) -> tuple:
        """Serialize as (a_num, a_den, b_num, b_den) with reduced fractions."""
        return (self.a.numerator, self.a.denominator,
                self.b.numerator, self.b.denominator)

    # -- ring structure --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(other.a - self.a, other.b - self.b)

    def __neg__(self):
        return FieldElement(-self.a, -self.b)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + b s)(c + d s) = ac + 5bd + (ad + bc) s   with s^2 = 5
        return FieldElement(self.a * other.a + 5 * self.b * other.b,
                            self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- field structure --------------------------------------------------

    def conjugate(self) -> "FieldElement":
        """Galois conjugate a - b*sqrt(5)."""
        return FieldElement(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 5 b^2 (zero only for the zero element)."""
        return self.a * self.a - 5 * self.b * self.b

    def inverse(self) -> "FieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return FieldElement(self.a / n, -self.b / n)

    # -- order and comparisons ---------------------------------------------

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(5): -1, 0 or +1, exactly."""
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 against 5 b^2 (equality would force a = b = 0)
        if a > 0:
            return 1 if a * a > 5 * b * b else -1
        return 1 if 5 * b * b > a * a else -1

    def __bool__(self):
        return self.a != 0 or self.b != 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"FieldElement({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        surd = "sqrt5" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt5"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return f"{'-' if self.b < 0 else ''}{surd}"
        return f"{self.a}{sign}{surd}"

    def __float__(self):
        return float(self.a) + float(self.b) * 5 ** 0.5


def _coerce(value):
    if isinstance(value, FieldElement):
        return value
    if isinstance(value, (int, Fraction)):
        return FieldElement(value)
    return None


ZERO = FieldElement(0)
ONE = FieldElement(1)
HALF = FieldElement(Fraction(1, 2))
SQRT5 = FieldElement(0, 1)
# golden ratio (1 + sqrt 5)/2, the fundamental unit driving the H-type systems
GOLDEN = FieldElement(Fraction(1, 2), Fraction(1, 2))


# -- the library's Z[phi] coordinates ---------------------------------------------


def from_golden(e) -> FieldElement:
    """The coordinates (x, y) of x + y*phi, or (x,) of an integer, as
    (2x + y)/2 + (y/2)*sqrt5."""
    x, y = (tuple(e) + (0,))[:2]
    return FieldElement(Fraction(2 * x + y, 2), Fraction(y, 2))


def to_golden(e: FieldElement) -> tuple:
    """a + b*sqrt5 as the coordinates (a - b, 2b) of x + y*phi, by
    sqrt5 = 2phi - 1; they are Fractions, and the library's ring takes
    them as they are."""
    return e.a - e.b, 2 * e.b


# -- vectors, polynomials and matrices ------------------------------------------


def dot(x, y) -> FieldElement:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    total = ZERO
    for a, b in zip(x, y):
        total = total + a * b
    return total


def vadd(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def vneg(x) -> tuple:
    return tuple(-a for a in x)


def vscale(c, x) -> tuple:
    return tuple(c * a for a in x)


def poly_mul(p, q) -> tuple:
    """Product of two ascending coefficient tuples."""
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def poly_eval(p, x) -> FieldElement:
    acc = ZERO
    for coeff in reversed(p):
        acc = acc * x + coeff
    return acc


def identity(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def transpose(m) -> tuple:
    return tuple(zip(*m))


def mat_mul(a, b) -> tuple:
    cols = transpose(b)
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def gauss_det(rows) -> FieldElement:
    """Determinant by exact Gaussian elimination."""
    work = [list(row) for row in rows]
    n, result = len(work), ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if not work[r][col].is_zero),
                         None)
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            result = -result
        pivot = work[col][col]
        result = result * pivot
        for r in range(col + 1, n):
            factor = work[r][col] / pivot
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return result
