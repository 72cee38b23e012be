"""Finite root systems with exact coordinates.

Each supported family gets a concrete vector model over the sqrt(5)
field, chosen so that every coordinate is exact:

  A(n)    e_i - e_j in R^(n+1)            (A0 is the empty system in R^1)
  B(n)    +-e_i, +-e_i +- e_j             (C(n) is the same group; the C
                                           label is normalized to B)
  D(n)    +-e_i +- e_j
  E6, E7  subsystems of E8 orthogonal to one resp. two chosen vectors
  E8      +-e_i +- e_j and half-integer vectors with even minus count
  F4      +-e_i, +-e_i +- e_j, (+-1,+-1,+-1,+-1)/2
  G2      +-(e_i - e_j), +-(2e_i - e_j - e_k) in the sum-zero plane of R^3
  H3      (+-1,0,0) and cyclic shifts, plus (+-1,+-phi,+-1/phi)/2 cyclic
  H4      the 120 unit icosians in R^4
  I2(n)   n = 3, 4, 6: the A2 / B2 / G2 vectors; n = 5: the ten H3 roots
          in a fixed pentagonal plane of R^3.  Other n have no exact
          model over this field and are flagged matrix_free.

Rotations by pi/n for general n need sin(pi/n), which lives outside the
sqrt(5) field for n not in {3, 4, 5, 6} -- hence the matrix_free flag,
and hence the embedding of I2(3), I2(5), I2(6) in R^3 rather than R^2.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .field import GOLDEN, HALF, ONE, ZERO, FieldElement
from .linalg import Matrix, Vector, dot, span_rank, vneg, vscale, vsub

_EXCEPTIONAL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                       ("F", 4): 1152, ("G", 2): 12, ("H", 3): 120, ("H", 4): 14400}

_I2_MODELED = (3, 4, 5, 6)


class SpecParseError(ValueError):
    """Raised for malformed or out-of-range system descriptions."""


@dataclass(frozen=True)
class Factor:
    """One irreducible factor of a system description, e.g. A3 or I2(7)."""

    family: str
    n: int

    @property
    def label(self) -> str:
        if self.family == "I":
            return f"I2({self.n})"
        return f"{self.family}{self.n}"

    @property
    def order(self) -> int:
        """Order of the reflection group, from the classical formulas."""
        if self.family == "A":
            return factorial(self.n + 1)
        if self.family == "B":
            return 2 ** self.n * factorial(self.n)
        if self.family == "D":
            return 2 ** (self.n - 1) * factorial(self.n)
        if self.family == "I":
            return 2 * self.n
        return _EXCEPTIONAL_ORDERS[(self.family, self.n)]

    @property
    def contains_minus_identity(self) -> bool:
        """Whether -identity lies in the group (classification fact)."""
        if self.family == "A":
            return self.n == 1
        if self.family == "B" or self.family == "F" or self.family == "G":
            return True
        if self.family == "D":
            return self.n % 2 == 0
        if self.family == "E":
            return self.n in (7, 8)
        if self.family == "H":
            return True
        return self.n % 2 == 0  # I2(n)

    @property
    def has_matrix_model(self) -> bool:
        return self.family != "I" or self.n in _I2_MODELED

    @property
    def canonical(self) -> bool:
        """False only for the testing-grade D2 and D3 aliases."""
        return not (self.family == "D" and self.n < 4)


_FACTOR_RE = re.compile(r"^(A|B|C|D|E|F|G|H)(\d+)$|^I2\((\d+)\)$")


def parse_factor(token: str) -> Factor:
    text = token.strip().upper().replace(" ", "")
    m = _FACTOR_RE.match(text)
    if not m:
        raise SpecParseError(f"unrecognized system label {token!r}")
    if m.group(3) is not None:
        n = int(m.group(3))
        if n < 3:
            raise SpecParseError(f"I2(n) needs n >= 3, got {token!r}")
        return Factor("I", n)
    family, n = m.group(1), int(m.group(2))
    if family == "A":
        if n < 0:
            raise SpecParseError(f"A(n) needs n >= 0, got {token!r}")
        return Factor("A", n)
    if family in ("B", "C"):
        if n < 2:
            raise SpecParseError(f"{family}(n) needs n >= 2, got {token!r}")
        return Factor("B", n)  # W(B n) = W(C n); one internal label
    if family == "D":
        if n < 2:
            raise SpecParseError(f"D(n) needs n >= 2, got {token!r}")
        return Factor("D", n)
    if family == "E":
        if n not in (6, 7, 8):
            raise SpecParseError(f"E(n) exists for n in 6..8, got {token!r}")
        return Factor("E", n)
    if family == "F":
        if n != 4:
            raise SpecParseError(f"F(n) exists only for n = 4, got {token!r}")
        return Factor("F", 4)
    if family == "G":
        if n != 2:
            raise SpecParseError(f"G(n) exists only for n = 2, got {token!r}")
        return Factor("G", 2)
    if n not in (3, 4):
        raise SpecParseError(f"H(n) exists for n in 3..4, got {token!r}")
    return Factor("H", n)


def parse_system_spec(spec: str) -> tuple:
    """Parse 'FACTOR + FACTOR + ...' into a tuple of Factors."""
    if not spec or not spec.strip():
        raise SpecParseError("empty system description")
    return tuple(parse_factor(tok) for tok in spec.split("+"))


# -- vector models -------------------------------------------------------------


def _axis(n, i, value=ONE):
    return tuple(value if j == i else ZERO for j in range(n))


def _roots_a(n: int):
    # e_i - e_j in R^(n+1); empty for n = 0
    roots = []
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                roots.append(tuple(ONE if k == i else -ONE if k == j else ZERO
                                   for k in range(n + 1)))
    return n + 1, roots


def _roots_b(n: int):
    roots = [vscale(s, _axis(n, i)) for i in range(n) for s in (ONE, -ONE)]
    roots += _sum_diff_pairs(n)
    return n, roots


def _roots_d(n: int):
    return n, _sum_diff_pairs(n)


def _sum_diff_pairs(n: int):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (ONE, -ONE):
                for sj in (ONE, -ONE):
                    out.append(tuple(si if k == i else sj if k == j else ZERO
                                     for k in range(n)))
    return out


def _roots_e8():
    roots = _sum_diff_pairs(8)
    for signs in itertools.product((HALF, -HALF), repeat=8):
        if sum(1 for s in signs if s < ZERO) % 2 == 0:
            roots.append(signs)
    return 8, roots


def _roots_e7():
    # the E8 roots orthogonal to e7 + e8
    _, e8 = _roots_e8()
    marker = tuple([ZERO] * 6 + [ONE, ONE])
    return 8, [r for r in e8 if dot(r, marker).is_zero]


def _roots_e6():
    # the E7 roots additionally orthogonal to e6 + e7
    _, e7 = _roots_e7()
    marker = tuple([ZERO] * 5 + [ONE, ONE, ZERO])
    return 8, [r for r in e7 if dot(r, marker).is_zero]


def _roots_f4():
    roots = [vscale(s, _axis(4, i)) for i in range(4) for s in (ONE, -ONE)]
    roots += _sum_diff_pairs(4)
    roots += [signs for signs in itertools.product((HALF, -HALF), repeat=4)]
    return 4, roots


def _roots_g2():
    roots = []
    for i in range(3):
        for j in range(3):
            if i != j:
                roots.append(tuple(ONE if k == i else -ONE if k == j else ZERO
                                   for k in range(3)))
    two = FieldElement(2)
    for i in range(3):
        long_root = tuple(two if k == i else -ONE for k in range(3))
        roots.append(long_root)
        roots.append(vneg(long_root))
    return 3, roots


def _h3_vectors():
    phi = GOLDEN
    phinv = GOLDEN - 1
    roots = [vscale(s, _axis(3, i)) for i in range(3) for s in (ONE, -ONE)]
    base = (ONE, phi, phinv)
    for shift in range(3):
        shifted = base[-shift:] + base[:-shift]
        for signs in itertools.product((HALF, -HALF), repeat=3):
            roots.append(tuple(s * v for s, v in zip(signs, shifted)))
    return roots


def _roots_h3():
    return 3, _h3_vectors()


def _roots_h4():
    phi = GOLDEN
    phinv = GOLDEN - 1
    roots = [vscale(s, _axis(4, i)) for i in range(4) for s in (ONE, -ONE)]
    roots += [signs for signs in itertools.product((HALF, -HALF), repeat=4)]
    # even coordinate permutations of (phi, 1, 1/phi, 0)/2
    values = (phi * HALF, HALF, phinv * HALF, ZERO)
    for perm in itertools.permutations(range(4)):
        if _permutation_parity(perm) != 0:
            continue
        placed = [None] * 4
        for slot, which in enumerate(perm):
            placed[slot] = values[which]
        nonzero = [k for k in range(4) if not placed[k].is_zero]
        for signs in itertools.product((1, -1), repeat=3):
            root = list(placed)
            for s, k in zip(signs, nonzero):
                if s < 0:
                    root[k] = -root[k]
            roots.append(tuple(root))
    return 4, roots


def _permutation_parity(perm) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return inversions % 2


def _roots_i2_pentagon():
    """The ten H3 roots orthogonal to (0, -phi, 1): an exact decagon."""
    axis = (ZERO, -GOLDEN, ONE)
    return 3, [r for r in _h3_vectors() if dot(r, axis).is_zero]


def _irreducible_vectors(factor: Factor):
    if factor.family == "A":
        return _roots_a(factor.n)
    if factor.family == "B":
        return _roots_b(factor.n)
    if factor.family == "D":
        return _roots_d(factor.n)
    if factor.family == "E":
        return {6: _roots_e6, 7: _roots_e7, 8: _roots_e8}[factor.n]()
    if factor.family == "F":
        return _roots_f4()
    if factor.family == "G":
        return _roots_g2()
    if factor.family == "H":
        return _roots_h3() if factor.n == 3 else _roots_h4()
    # I2(n): borrow the crystallographic models where they exist
    if factor.n == 3:
        return _roots_a(2)
    if factor.n == 4:
        return _roots_b(2)
    if factor.n == 6:
        return _roots_g2()
    if factor.n == 5:
        return _roots_i2_pentagon()
    raise ValueError(f"{factor.label} has no vector model over Q(sqrt 5)")


# -- the system object ----------------------------------------------------------


class RootSystem:
    """A finite root system: exact root vectors plus factor bookkeeping.

    trivial_dims counts ambient directions carrying no roots that still
    take part in the spectrum convention: each A0 factor contributes one
    such direction, on which every group element acts as +1.
    """

    def __init__(self, factors, dimension, roots, matrix_free=False,
                 trivial_dims=0):
        self.factors = tuple(factors)
        self.dimension = dimension
        self.roots = tuple(roots)
        self.matrix_free = matrix_free
        self.trivial_dims = trivial_dims
        self._root_index = None
        self._rank = None
        self._simple = None

    @property
    def label(self) -> str:
        return "+".join(f.label for f in self.factors)

    @property
    def known_order(self) -> int:
        order = 1
        for f in self.factors:
            order *= f.order
        return order

    @property
    def root_index(self) -> dict:
        if self._root_index is None:
            self._root_index = {r: i for i, r in enumerate(self.roots)}
        return self._root_index

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = span_rank(self.roots)
        return self._rank

    @property
    def simple_root_indices(self) -> tuple:
        """Indices of the simple system for the lexicographic positive half.

        A positive root is simple exactly when its reflection permutes
        the remaining positive roots; this characterization is valid for
        every finite reflection group, crystallographic or not.  Roots
        orthogonal to the candidate are fixed by its reflection, so only
        the others are reflected.
        """
        if self._simple is None:
            positive = [i for i, r in enumerate(self.roots) if _is_positive(r)]
            pos_set = {self.roots[i] for i in positive}
            simple = []
            for i in positive:
                v = self.roots[i]
                two_over_norm = 2 / dot(v, v)
                for j in positive:
                    w = self.roots[j]
                    d = dot(w, v)
                    if j == i or d.is_zero:
                        continue
                    if vsub(w, vscale(d * two_over_norm, v)) not in pos_set:
                        break
                else:
                    simple.append(i)
            if len(simple) != self.rank:
                raise RuntimeError(
                    f"simple system of {self.label} has size {len(simple)}, "
                    f"expected rank {self.rank}")
            self._simple = tuple(simple)
        return self._simple

    def __repr__(self):
        return f"RootSystem({self.label}, {len(self.roots)} roots in R^{self.dimension})"


def _is_positive(root: Vector) -> bool:
    for c in root:
        s = c.sign()
        if s:
            return s > 0
    return False


def reflect(x: Vector, v: Vector) -> Vector:
    """Image of x under the reflection through the hyperplane orthogonal to v."""
    coeff = (dot(x, v) * 2) / dot(v, v)
    return vsub(x, vscale(coeff, v))


def reflection_matrix(v: Vector) -> Matrix:
    """Ambient matrix of the reflection in v (exact, orthogonal)."""
    n = len(v)
    inv_norm = dot(v, v).inverse()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = -2 * v[i] * v[j] * inv_norm
            if i == j:
                entry = entry + ONE
            row.append(entry)
        rows.append(tuple(row))
    return Matrix(rows)


def build_irreducible(factor: Factor) -> RootSystem:
    """Vector model of one irreducible factor (or a matrix_free shell)."""
    if factor.family == "A" and factor.n == 0:
        return RootSystem((factor,), 1, (), trivial_dims=1)
    if not factor.has_matrix_model:
        return RootSystem((factor,), 2, (), matrix_free=True)
    dimension, vectors = _irreducible_vectors(factor)
    return RootSystem((factor,), dimension, sorted(vectors))


def direct_sum(first: RootSystem, second: RootSystem) -> RootSystem:
    """Orthogonal juxtaposition; factor order and root blocks are preserved."""
    d1, d2 = first.dimension, second.dimension
    pad1 = (ZERO,) * d2
    pad2 = (ZERO,) * d1
    roots = [r + pad1 for r in first.roots] + [pad2 + r for r in second.roots]
    return RootSystem(first.factors + second.factors, d1 + d2, roots,
                      matrix_free=first.matrix_free or second.matrix_free,
                      trivial_dims=first.trivial_dims + second.trivial_dims)


def build_system(factors) -> RootSystem:
    factors = tuple(factors)
    if not factors:
        raise SpecParseError("a system needs at least one factor")
    system = build_irreducible(factors[0])
    for factor in factors[1:]:
        system = direct_sum(system, build_irreducible(factor))
    return system


def system_from_spec(spec: str) -> RootSystem:
    return build_system(parse_system_spec(spec))


@dataclass
class ValidationReport:
    ok: bool
    problems: list

    def __bool__(self):
        return self.ok


def validate_root_system(system: RootSystem) -> ValidationReport:
    """Check the root system axioms exactly; reports the first few violations."""
    problems = []
    roots = system.roots
    root_set = set(roots)
    if len(root_set) != len(roots):
        problems.append("duplicate roots")
    for r in roots:
        if all(c.is_zero for c in r):
            problems.append("zero vector listed as a root")
            break
    # collinear roots may only come in +-v pairs
    for r in roots:
        if vneg(r) not in root_set:
            problems.append(f"missing negative of {r}")
            break
    for i, r in enumerate(roots):
        for s in roots[i + 1:]:
            if s == vneg(r):
                continue
            if _collinear(r, s):
                problems.append(f"roots {r} and {s} are collinear")
                break
        if problems and problems[-1].startswith("roots "):
            break
    # closure under every root reflection
    for v in roots:
        for r in roots:
            if reflect(r, v) not in root_set:
                problems.append(f"reflection in {v} moves {r} outside the system")
                break
        if problems and problems[-1].startswith("reflection"):
            break
    return ValidationReport(not problems, problems)


def _collinear(r: Vector, s: Vector) -> bool:
    ratio = None
    for a, b in zip(r, s):
        if a.is_zero != b.is_zero:
            return False
        if a.is_zero:
            continue
        current = b / a
        if ratio is None:
            ratio = current
        elif current != ratio:
            return False
    return True


def root_permutation(system: RootSystem, v: Vector) -> bytes:
    """Permutation of root indices induced by the reflection in v, one
    byte per root (the element format of coxtraces.group)."""
    index = system.root_index
    return bytes(index[reflect(r, v)] for r in system.roots)
