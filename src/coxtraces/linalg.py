"""Exact dense linear algebra over the sqrt(5) field.

Vectors are plain tuples of FieldElement; matrices are immutable
row-tuples.  Everything here is exact: determinants come from fraction
Gaussian elimination and characteristic polynomials from interpolation
at small integer points.
"""

from __future__ import annotations

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

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix.from_columns(self.rows)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = other.columns()
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
        if n == 0:
            return (ONE,)
        points = _interpolation_points(n + 1)
        values = []
        for t in points:
            shifted = Matrix.identity(n).scale(FieldElement(t)) - self
            values.append(shifted.det())
        return lagrange_interpolate(points, values)


def _interpolation_points(count: int):
    """0, 1, -1, 2, -2, ... as plain integers."""
    points = [0]
    k = 1
    while len(points) < count:
        points.append(k)
        if len(points) < count:
            points.append(-k)
        k += 1
    return points[:count]


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


# -- solving in a spanning set ------------------------------------------------


def span_rank(vectors: Sequence[Vector]) -> int:
    """Dimension of the span of the given vectors."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot_row = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        inv = pivot.inverse()
        for r in range(len(rows)):
            if r == rank or rows[r][col].is_zero:
                continue
            factor = rows[r][col] * inv
            for c in range(col, width):
                rows[r][c] = rows[r][c] - factor * rows[rank][c]
        rank += 1
        if rank == min(len(rows), width):
            break
    return rank


def solve_in_basis(basis: Sequence[Vector], targets: Sequence[Vector]):
    """Coordinates of each target in the given linearly independent basis.

    Raises ValueError if the basis is dependent or a target lies outside
    its span.  Returns one coordinate tuple per target.
    """
    d = len(basis)
    if d == 0:
        for t in targets:
            if any(not c.is_zero for c in t):
                raise ValueError("target outside the span of an empty basis")
        return [() for _ in targets]
    n = len(basis[0])
    k = len(targets)
    # augmented rows: [basis columns | target columns], one row per ambient dim
    aug = [[basis[j][i] for j in range(d)] + [targets[m][i] for m in range(k)]
           for i in range(n)]
    pivot_cols = []
    row = 0
    for col in range(d):
        pivot_row = None
        for r in range(row, n):
            if not aug[r][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            raise ValueError("basis vectors are linearly dependent")
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [e * inv for e in aug[row]]
        for r in range(n):
            if r == row or aug[r][col].is_zero:
                continue
            factor = aug[r][col]
            aug[r] = [e - factor * p for e, p in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
    for r in range(row, n):
        if any(not aug[r][d + m].is_zero for m in range(k)):
            raise ValueError("target outside the span of the basis")
    return [tuple(aug[i][d + m] for i in range(d)) for m in range(k)]
