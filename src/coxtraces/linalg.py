"""Exact dense linear algebra: the coordinate ring Z[eta] and matrices.

Every root coordinate and every entry of a group element's matrix lies
in Z[eta], eta = 2cos(pi/N), for one integer N per system (Humphreys,
Reflection Groups and Coxeter Groups, 5.3).  An element is a tuple of d
integers, its coordinates in the basis 1, eta, ..., eta^(d-1); products
are reduced by the monic minimal polynomial of eta, of degree d.  N = 1
gives the plain integers and N = 5 the golden integers x + y*phi.

Characteristic polynomials come from the power traces tr M^k by
Newton's identities (charpoly_from_traces), fed by a Matrix or by the
class walk, which reads the traces off root permutations.  Integer
coordinates divide exactly, and Fraction ones (the half-integers of
the published rank-3 fixture) in Q.  Printing is the only place that
leaves the ring: for N = 1 and 5 an element x + y*phi prints as the
Q(sqrt5) number ((2x + y) + y*sqrt5)/2.
"""

from __future__ import annotations

from functools import lru_cache


class CertificateError(RuntimeError):
    """An exactness or classical-invariant check failed: nothing prints."""


# -- the coordinate ring -----------------------------------------------------


class Ring:
    """Z[eta] for eta = 2cos(pi/n); its elements are tuples of d integers."""

    def __init__(self, n: int):
        self.n = n
        # eta^d = -sum_j low[j] eta^j
        *self._low, _ = _minimal_polynomial(n)
        self.d = len(self._low)
        self.zero = (0,) * self.d
        self.one = self.integer(1)
        self.eta = self.reduce([0, 1] + [0] * self.d)

    def integer(self, k: int) -> tuple:
        return (k,) + (0,) * (self.d - 1)

    def reduce(self, c) -> tuple:
        """The element sum_k c[k] eta^k, for a list c of at least d integers."""
        d = self.d
        for k in range(len(c) - 1, d - 1, -1):
            top = c[k]
            if top:
                for j, m in enumerate(self._low):
                    c[k - d + j] -= top * m
        return tuple(c[:d])

    def sub(self, a, b) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a) -> tuple:
        return tuple(-x for x in a)

    def dot(self, xs, ys) -> tuple:
        """sum_j xs[j] ys[j] over the shorter length; the products are
        summed unreduced and reduced once."""
        acc = [0] * (2 * self.d - 1)
        for a, b in zip(xs, ys):
            if any(b):
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b):
                            acc[i + j] += x * y
        return self.reduce(acc)

    def mul(self, a, b) -> tuple:
        return self.dot((a,), (b,))

    def two_cos(self, k: int) -> tuple:
        """2cos(pi/k), for k = 2, 3 (0 and 1) or k dividing n."""
        if k in (2, 3):
            return self.integer(k - 2)
        if self.n % k:
            raise ValueError(f"2cos(pi/{k}) is not in Z[2cos(pi/{self.n})]")
        # 2cos(j pi/n) = V_j(eta): V_0 = 2, V_1 = eta, V_j+1 = eta V_j - V_j-1
        prev, cur = self.integer(2), self.eta
        for _ in range(self.n // k - 1):
            prev, cur = cur, self.sub(self.mul(self.eta, cur), prev)
        return cur

    def text(self, e) -> str:
        """The printed form: for n = 1 and 5 a + b*sqrt5 as 'a+b*sqrt5'
        ('3/2+1/2*sqrt5', '-sqrt5', '2'), otherwise an integer polynomial
        in cN = 2cos(pi/N), highest power first (e.g. 'c7^2 - 2')."""
        if self.n not in (1, 5):
            return poly_str(e, var=f"c{self.n}")
        a, b = _sqrt5_parts(e)
        if not b:
            return str(a)
        surd = "sqrt5" if abs(b) == 1 else f"{abs(b)}*sqrt5"
        if not a:
            return f"-{surd}" if b < 0 else surd
        return f"{a}{'-' if b < 0 else '+'}{surd}"

    def as_json(self, e) -> list:
        """The JSON form: for n = 1 and 5 a + b*sqrt5 as [a_num, a_den,
        b_num, b_den] in lowest terms, otherwise the d integer coordinates
        in the basis 1, eta, ..."""
        if self.n not in (1, 5):
            return list(e)
        a, b = _sqrt5_parts(e)
        return [a.numerator, a.denominator, b.numerator, b.denominator]


def _sqrt5_parts(e) -> tuple:
    """An element of Z or Z[phi] as the Fractions (a, b) of a + b*sqrt5:
    x + y*phi is (2x + y)/2 + (y/2)*sqrt5."""
    from fractions import Fraction  # only printing leaves the ring
    x, y = (tuple(e) + (0,))[:2]
    return Fraction(2 * x + y, 2), Fraction(y, 2)


@lru_cache(maxsize=None)
def coordinate_ring(n: int) -> Ring:
    return Ring(n)


def _minimal_polynomial(n: int) -> list:
    """Ascending integer coefficients of the monic minimal polynomial of
    2cos(pi/n).  For n > 1 the cyclotomic polynomial Phi_2n(z) has degree
    2d and is palindromic, so z^-d Phi_2n(z) is a polynomial of degree d
    in z + 1/z, which is that minimal polynomial."""
    if n == 1:
        return [2, 1]
    cyclotomic = {}
    for k in range(1, 2 * n + 1):
        if 2 * n % k == 0:
            # z^k - 1 is the product of Phi_j over the divisors j of k
            p = [-1] + [0] * (k - 1) + [1]
            for j, q in cyclotomic.items():
                if k % j == 0:
                    p = _divide(p, q)
            cyclotomic[k] = p
    c = cyclotomic[2 * n]
    d = len(c) // 2
    # z^-d Phi(z) = c_d + sum_k c_d+k (z^k + z^-k), and z^k + z^-k = V_k(z + 1/z)
    out = [c[d]] + [0] * d
    prev, cur = [2], [0, 1]
    for k in range(1, d + 1):
        for j, v in enumerate(cur):
            out[j] += c[d + k] * v
        nxt = [0] + cur
        for j, v in enumerate(prev):
            nxt[j] -= v
        prev, cur = cur, nxt
    return out


def _divide(p, q) -> list:
    """p / q for a monic q that divides p (ascending coefficients)."""
    p, out = list(p), [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = p[k + len(q) - 1]
        for j, c in enumerate(q):
            p[k + j] -= out[k] * c
    return out


# -- matrices ----------------------------------------------------------------


class Matrix:
    """Immutable exact matrix: rows of elements of one Ring."""

    __slots__ = ("rows", "ring")

    def __init__(self, rows, ring: Ring):
        self.ring = ring
        self.rows = tuple(tuple(row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(row) != width for row in self.rows):
                raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int, ring: Ring) -> "Matrix":
        return cls(tuple(tuple(ring.one if i == j else ring.zero
                               for j in range(n)) for i in range(n)), ring)

    @classmethod
    def from_columns(cls, cols, ring: Ring) -> "Matrix":
        return cls(tuple(zip(*cols)), ring)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        dot = self.ring.dot
        cols = list(zip(*other.rows))
        return Matrix(tuple(tuple(dot(row, col) for col in cols)
                            for row in self.rows), self.ring)

    def __pow__(self, k: int):
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        result = Matrix.identity(self.nrows, self.ring)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        sub = self.ring.sub
        return Matrix(tuple(tuple(map(sub, r, s))
                            for r, s in zip(self.rows, other.rows)), self.ring)

    def __neg__(self):
        neg = self.ring.neg
        return Matrix(tuple(tuple(map(neg, r)) for r in self.rows), self.ring)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"

    def det(self) -> tuple:
        """Determinant, (-1)^n det(0I - M) from the characteristic
        polynomial."""
        c0 = self.charpoly()[0]
        return c0 if self.nrows % 2 == 0 else self.ring.neg(c0)

    def charpoly(self) -> tuple:
        """Coefficients of det(tI - M), ascending in t (exact, monic), as
        ring elements, from the traces of M, M^2, ..., M^n."""
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        traces, power = [], Matrix.identity(self.nrows, self.ring)
        for _ in range(self.nrows):
            power = power * self
            diagonal = (row[i] for i, row in enumerate(power.rows))
            traces.append(tuple(map(sum, zip(*diagonal))))
        return charpoly_from_traces(self.ring, traces)


def charpoly_from_traces(ring: Ring, traces) -> tuple:
    """Ascending coefficients of det(tI - M) from tr M, ..., tr M^n by
    Newton's identities k c_k = -sum_{i=1..k} c_{k-i} tr M^i, c_k the
    coefficient of t^(n-k).  The basis 1, eta, ... is integral, so the
    coordinates of k c_k are k times those of c_k: integer ones must
    divide exactly (CertificateError otherwise), Fraction ones in Q."""
    coeffs = [ring.one]
    for k in range(1, len(traces) + 1):
        total = ring.neg(ring.dot(coeffs[::-1], traces))
        if any(x % k for x in total if isinstance(x, int)):
            raise CertificateError(f"Newton step {k} is not exact: {total} "
                                   f"has a coordinate that is no multiple "
                                   f"of {k}")
        coeffs.append(tuple(x // k if isinstance(x, int) else x / k
                            for x in total))
    return tuple(reversed(coeffs))


# -- printing ------------------------------------------------------------------


def poly_str(p, var: str = "t", text=str) -> str:
    """Deterministic human-readable form, highest degree first; text
    prints one coefficient."""
    terms = []
    for k in range(len(p) - 1, -1, -1):
        coeff = text(p[k])
        if coeff == "0":
            continue
        if "+" in coeff[1:] or "-" in coeff[1:]:
            coeff = f"({coeff})"
        if k == 0:
            terms.append(coeff)
            continue
        coeff = coeff[:-1] if coeff in ("1", "-1") else coeff + "*"
        terms.append(f"{coeff}{var}" if k == 1 else f"{coeff}{var}^{k}")
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out

