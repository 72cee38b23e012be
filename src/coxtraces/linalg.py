"""Exact dense linear algebra over the sqrt(5) field.

Vectors are plain tuples of FieldElement; matrices are immutable
row-tuples.  Everything here is exact: determinants come from fraction
Gaussian elimination, and characteristic polynomials from the
division-free Berkowitz algorithm over the integers Z[phi] after
clearing denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .field import ONE, ZERO, FieldElement

Vector = tuple

# -- vector helpers ----------------------------------------------------------


def as_vector(values: Iterable) -> Vector:
    return tuple(v if isinstance(v, FieldElement) else FieldElement(v)
                 for v in values)


def dot(x: Vector, y: Vector) -> FieldElement:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    total = ZERO
    for a, b in zip(x, y):
        total = total + a * b
    return total


def vadd(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vneg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def vscale(c, x: Vector) -> Vector:
    return tuple(c * a for a in x)


# -- matrices ----------------------------------------------------------------


class Matrix:
    """Immutable exact matrix (rows of FieldElement)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(as_vector(row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(row) != width for row in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                         for i in range(n)))

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> "Matrix":
        if not cols:
            return cls(())
        return cls(tuple(zip(*cols)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.rows)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = list(zip(*other.rows))
        return Matrix(tuple(tuple(dot(row, col) for col in cols)
                            for row in self.rows))

    def __pow__(self, k: int):
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        result = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(vadd(r, s) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(tuple(vsub(r, s) for r, s in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix(tuple(vneg(r) for r in self.rows))

    def scale(self, c) -> "Matrix":
        return Matrix(tuple(vscale(c, r) for r in self.rows))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    def trace(self) -> FieldElement:
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def det(self) -> FieldElement:
        """Determinant via exact Gaussian elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return ONE
        work = [list(row) for row in self.rows]
        sign = 1
        result = ONE
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if not work[r][col].is_zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                return ZERO
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                sign = -sign
            pivot = work[col][col]
            result = result * pivot
            inv = pivot.inverse()
            for r in range(col + 1, n):
                factor = work[r][col] * inv
                if factor.is_zero:
                    continue
                row = work[r]
                base = work[col]
                for c in range(col, n):
                    row[c] = row[c] - factor * base[c]
        return result if sign > 0 else -result

    def charpoly(self) -> tuple:
        """Coefficients of det(tI - M), ascending in t (exact, monic)."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        xs, ys, d = _to_zphi(self.rows)
        coeffs = []
        scale = 2
        for x, y in _berkowitz(xs, ys):
            # x + y*phi = (2x + y)/2 + (y/2)*sqrt5, and c_k of D*M is D^k c_k
            coeffs.append(FieldElement(Fraction(2 * x + y, scale),
                                       Fraction(y, scale)))
            scale *= d
        return tuple(reversed(coeffs))


def _to_zphi(rows):
    """Clear a common denominator D of the entries a + b*sqrt5 and write
    each one of D*M as x + y*phi over the integers (sqrt5 = 2*phi - 1):
    x = D*(a - b), y = 2*D*b.  Returns the x and y matrices and D."""
    d = lcm(*(q for row in rows for e in row
              for q in (e.a.denominator, e.b.denominator)))
    xs, ys = [], []
    for row in rows:
        xrow, yrow = [], []
        for e in row:
            a = e.a.numerator * (d // e.a.denominator)
            b = e.b.numerator * (d // e.b.denominator)
            xrow.append(a - b)
            yrow.append(2 * b)
        xs.append(xrow)
        ys.append(yrow)
    return xs, ys, d


def _berkowitz(xs, ys):
    """Coefficients of det(tI - M), descending in t, for M = X + Y*phi
    with integer X, Y: the division-free Berkowitz recurrence in Z[phi].

    Growing the leading block A_r by row R, column S and corner a, the
    polynomial of A_{r+1} is the Toeplitz product of
    (1, -a, -R.S, -R.A_r.S, ..., -R.A_r^(r-1).S) with that of A_r.
    """
    px, py = [1], [0]
    for r in range(len(xs)):
        col_x, col_y = [1, -xs[r][r]], [0, -ys[r][r]]
        vx = [xs[i][r] for i in range(r)]
        vy = [ys[i][r] for i in range(r)]
        for k in range(r):
            if k:
                # v <- A_r v; rows of A_r are cut to length r by zip
                vx, vy = zip(*[_zphi_dot(xs[i], ys[i], vx, vy)
                               for i in range(r)])
            sx, sy = _zphi_dot(xs[r], ys[r], vx, vy)
            col_x.append(-sx)
            col_y.append(-sy)
        px, py = zip(*[_zphi_dot(col_x[i::-1], col_y[i::-1], px, py)
                       for i in range(r + 2)])
    return list(zip(px, py))


def _zphi_dot(ax, ay, bx, by):
    """sum_j (ax[j] + ay[j]*phi)(bx[j] + by[j]*phi) as an integer pair,
    over the shorter length; phi^2 = phi + 1."""
    sx = sy = 0
    for p, q, u, w in zip(ax, ay, bx, by):
        if u or w:
            qw = q * w
            sx += p * u + qw
            sy += p * w + q * u + qw
    return sx, sy


# -- polynomials (ascending coefficient tuples) ------------------------------


def poly_add(p, q):
    n = max(len(p), len(q))
    p = tuple(p) + (ZERO,) * (n - len(p))
    q = tuple(q) + (ZERO,) * (n - len(q))
    return tuple(a + b for a, b in zip(p, q))


def poly_neg(p):
    return tuple(-a for a in p)


def poly_scale(c, p):
    return tuple(c * a for a in p)


def poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def poly_eval(p, x) -> FieldElement:
    if not isinstance(x, FieldElement):
        x = FieldElement(x)
    acc = ZERO
    for coeff in reversed(p):
        acc = acc * x + coeff
    return acc


def poly_str(p, var: str = "t") -> str:
    """Deterministic human-readable form, highest degree first."""
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero:
            continue
        if c == ONE and k > 0:
            coeff = ""
        elif c == -ONE and k > 0:
            coeff = "-"
        else:
            text = str(c)
            coeff = f"({text})" if ("+" in text[1:] or "-" in text[1:]) else text
            if k > 0:
                coeff += "*"
        if k == 0:
            term = coeff or ("1" if c == ONE else "-1")
        elif k == 1:
            term = f"{coeff}{var}"
        else:
            term = f"{coeff}{var}^{k}"
        terms.append(term)
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def lagrange_interpolate(points, values) -> tuple:
    """Exact polynomial through (points[i], values[i]); points are distinct ints."""
    result = (ZERO,)
    for i, (xi, yi) in enumerate(zip(points, values)):
        numer = (ONE,)
        denom = ONE
        for j, xj in enumerate(points):
            if j == i:
                continue
            numer = poly_mul(numer, (FieldElement(-xj), ONE))
            denom = denom * FieldElement(xi - xj)
        result = poly_add(result, poly_scale(yi / denom, numer))
    return result
