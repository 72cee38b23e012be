"""Finite root systems in simple-root coordinates.

Each factor is given by its Cartan matrix a_ij = 2(alpha_i, alpha_j) /
(alpha_i, alpha_i) over Z[phi] (phi the golden ratio).  Its roots are
the orbit of the simple roots alpha_i = e_i under the simple reflections
s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, written as coordinate
vectors in the simple basis, so all coordinates lie in Z[phi].

  A(n)    a chain (A0 has no roots; its fixed line is a trivial_dim)
  B(n)    a chain whose node 0 is the short root (C(n) is read as B(n))
  D(n)    nodes 0 and 1 both attached to node 2, then a chain
  E6..8, F4, G2, H3, H4   fixed edge lists
  I2(m)   a_01 a_10 = 4 cos^2(pi/m): 1, 2, phi^2, 3 and 2 + phi for
          m = 3, 4, 5, 6, 10; other m have no Cartan matrix over Z[phi]
          and are flagged matrix_free

The node order is the one in which earlier releases found the simple
roots of their vector models, so element ids, class order and every
printed report stay the same.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .field import GOLDEN, ZERO, FieldElement

# |W|, the Coxeter number h (|R| = rank x h) and the Cartan edges:
# (i, j) for a_ij = a_ji = -1, or (i, j, a_ij, a_ji)
_EXCEPTIONAL = {
    ("E", 6): (51840, 12, ((0, 2), (0, 5), (1, 2), (1, 4), (2, 3))),
    ("E", 7): (2903040, 18, ((0, 6), (1, 3), (2, 3), (2, 6), (3, 4), (4, 5))),
    ("E", 8): (696729600, 30,
               ((0, 2), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    ("F", 4): (1152, 12, ((0, 1, -2, -1), (0, 3), (1, 2))),
    ("G", 2): (12, 6, ((0, 1, -3, -1),)),
    ("H", 3): (120, 10, ((0, 2, -GOLDEN, -GOLDEN), (1, 2))),
    ("H", 4): (14400, 30, ((0, 2, -GOLDEN, -GOLDEN), (1, 2), (1, 3))),
}

# I2(m): (a_01, a_10)
_I2_CARTAN = {3: (-1, -1), 4: (-2, -1), 5: (-GOLDEN, -GOLDEN), 6: (-3, -1),
              10: (-1, -2 - GOLDEN)}
_I2_MODELED = tuple(_I2_CARTAN)


class SpecParseError(ValueError):
    """Raised for malformed or out-of-range system descriptions."""


@dataclass(frozen=True)
class Factor:
    """One irreducible factor of a system description, e.g. A3 or I2(7)."""

    family: str
    n: int

    @property
    def label(self) -> str:
        return f"I2({self.n})" if self.family == "I" else f"{self.family}{self.n}"

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
        return _EXCEPTIONAL[(self.family, self.n)][0]

    @property
    def rank(self) -> int:
        return 2 if self.family == "I" else self.n

    @property
    def root_count(self) -> int:
        """|R|, from the classical formulas."""
        h = {"A": self.n + 1, "B": 2 * self.n, "D": 2 * self.n - 2,
             "I": self.n}.get(self.family)
        return self.rank * (h or _EXCEPTIONAL[(self.family, self.n)][1])

    @property
    def contains_minus_identity(self) -> bool:
        """Whether -identity lies in the group (classification fact;
        always for B, F, G and H)."""
        n = self.n
        return {"A": n == 1, "D": n % 2 == 0, "E": n != 6,
                "I": n % 2 == 0}.get(self.family, True)

    @property
    def has_matrix_model(self) -> bool:
        return self.family != "I" or self.n in _I2_MODELED

    @property
    def canonical(self) -> bool:
        """False only for the testing-grade D2 and D3 aliases."""
        return not (self.family == "D" and self.n < 4)


_FACTOR_RE = re.compile(r"^(A|B|C|D|E|F|G|H)(\d+)$|^I2\((\d+)\)$")


# the ranks each family accepts, as (lowest, highest or None)
_RANKS = {"A": (0, None), "B": (2, None), "C": (2, None), "D": (2, None),
          "E": (6, 8), "F": (4, 4), "G": (2, 2), "H": (3, 4), "I": (3, None)}


def parse_factor(token: str) -> Factor:
    text = token.strip().upper().replace(" ", "")
    m = _FACTOR_RE.match(text)
    if not m:
        raise SpecParseError(f"unrecognized system label {token!r}")
    if m.group(3) is not None:
        family, n = "I", int(m.group(3))
    else:
        family, n = m.group(1), int(m.group(2))
    low, high = _RANKS[family]
    if n < low or (high is not None and n > high):
        allowed = f"n >= {low}" if high is None else f"n in {low}..{high}"
        raise SpecParseError(f"{family}(n) needs {allowed}, got {token!r}")
    # W(C n) = W(B n); one internal label
    return Factor("B" if family == "C" else family, n)


def parse_system_spec(spec: str) -> tuple:
    """Parse 'FACTOR + FACTOR + ...' into a tuple of Factors."""
    if not spec or not spec.strip():
        raise SpecParseError("empty system description")
    return tuple(parse_factor(tok) for tok in spec.split("+"))


def system_label(factors) -> str:
    return "+".join(f.label for f in factors)


def system_order(factors) -> int:
    return prod(f.order for f in factors)


# -- Cartan matrices and root closure -------------------------------------------


def _edges(factor: Factor):
    n = factor.n
    if factor.family == "A":
        return [(k, k + 1) for k in range(n - 1)]
    if factor.family == "B":
        return [(0, 1, -2, -1)] + [(k, k + 1) for k in range(1, n - 1)]
    if factor.family == "D":
        fork = [(0, 2), (1, 2)] if n > 2 else []
        return fork + [(k, k + 1) for k in range(2, n - 1)]
    if factor.family == "I":
        return [(0, 1) + _I2_CARTAN[n]]
    return _EXCEPTIONAL[(factor.family, n)][2]


def cartan_matrix(factor: Factor) -> tuple:
    """The Cartan matrix a_ij = <alpha_j, alpha_i^vee> in simple-root order."""
    if not factor.has_matrix_model:
        raise ValueError(f"{factor.label} has no Cartan matrix over Z[phi]")
    n = factor.rank
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, *pair in _edges(factor):
        rows[i][j], rows[j][i] = pair or (-1, -1)
    return tuple(tuple(FieldElement(a) if isinstance(a, int) else a for a in row)
                 for row in rows)


def _pairs(vector) -> tuple:
    """A vector over Z[phi] as the integers x0, y0, x1, y1, ... of its
    coordinates x + y*phi (a + b*sqrt5 = (a - b) + 2b*phi)."""
    return tuple(v for e in vector for v in (int(e.a - e.b), int(2 * e.b)))


def _unpair(flat) -> tuple:
    # x + y*phi = (2x + y)/2 + (y/2)*sqrt5
    return tuple(FieldElement(Fraction(2 * x + y, 2), Fraction(y, 2))
                 for x, y in zip(flat[::2], flat[1::2]))


def _reflector(cartan):
    """s(i, beta): the simple reflection s_i of a root in the integer form
    of _pairs.  Only coordinate i moves, by <beta, alpha_i^vee> =
    sum_j a_ij beta_j, computed in Z[phi] with phi^2 = phi + 1."""
    rows = [[(2 * j,) + _pairs((a,)) for j, a in enumerate(row) if a]
            for row in cartan]

    def s(i, beta):
        px = py = 0
        for k, ax, ay in rows[i]:
            bx, by = beta[k], beta[k + 1]
            t = by * ay
            px += bx * ax + t
            py += bx * ay + by * ax + t
        k = 2 * i
        return beta[:k] + (beta[k] - px, beta[k + 1] - py) + beta[k + 2:]
    return s


# -- the one closure and orbit walk, for roots and every group model ---------


def closure(seeds, gens, act):
    """BFS closure of the seeds under x -> act(x, g) for g in gens: the
    elements in discovery order and the element -> id map."""
    elements = list(seeds)
    index = {x: i for i, x in enumerate(elements)}
    frontier = list(elements)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    fresh.append(y)
        frontier = fresh
    return elements, index


def orbits(elements, index, gens, act):
    """Orbits of the bijections x -> act(x, g), as id lists ordered by
    least id, each starting with its least id."""
    visited = bytearray(len(elements))
    out = []
    for seed in range(len(elements)):
        if visited[seed]:
            continue
        visited[seed] = 1
        members = [seed]
        stack = [seed]
        while stack:
            x = elements[stack.pop()]
            for g in gens:
                y = index[act(x, g)]
                if not visited[y]:
                    visited[y] = 1
                    members.append(y)
                    stack.append(y)
        out.append(members)
    return out


# -- the system object ----------------------------------------------------------


class RootSystem:
    """A finite root system: roots in simple-root coordinates, the Cartan
    matrix of the simple roots, and factor bookkeeping.

    trivial_dims counts directions carrying no roots that still take part
    in the spectrum convention: each A0 factor contributes one such
    direction, on which every group element acts as +1.
    """

    def __init__(self, factors, roots, cartan):
        self.factors = tuple(factors)
        self.roots = tuple(roots)
        self.cartan = tuple(cartan)
        self._root_index = None
        self._simple = None
        self._reflections = None

    @property
    def label(self) -> str:
        return system_label(self.factors)

    @property
    def known_order(self) -> int:
        return system_order(self.factors)

    @property
    def matrix_free(self) -> bool:
        return not all(f.has_matrix_model for f in self.factors)

    @property
    def trivial_dims(self) -> int:
        return sum(1 for f in self.factors if f.family == "A" and f.n == 0)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def root_index(self) -> dict:
        if self._root_index is None:
            self._root_index = {r: i for i, r in enumerate(self.roots)}
        return self._root_index

    @property
    def simple_root_indices(self) -> tuple:
        """Indices of the simple roots, the unit coordinate vectors."""
        if self._simple is None:
            n = self.rank
            self._simple = tuple(
                self.root_index[tuple(FieldElement(int(i == j)) for j in range(n))]
                for i in range(n))
        return self._simple

    @property
    def simple_reflections(self) -> tuple:
        """Root permutation of each simple reflection, one byte per root
        (the element format of coxtraces.group)."""
        if self._reflections is None:
            s = _reflector(self.cartan)
            flat = [_pairs(r) for r in self.roots]
            index = {beta: k for k, beta in enumerate(flat)}
            self._reflections = tuple(bytes(index[s(i, beta)] for beta in flat)
                                      for i in range(self.rank))
        return self._reflections

    def __repr__(self):
        return f"RootSystem({self.label}, {len(self.roots)} roots, rank {self.rank})"


def build_irreducible(factor: Factor) -> RootSystem:
    """Roots of one irreducible factor (no roots for A0 and matrix-free I2(m))."""
    if not factor.has_matrix_model:
        return RootSystem((factor,), (), ())
    cartan = cartan_matrix(factor)
    s, n = _reflector(cartan), len(cartan)
    # the orbit of the simple roots e_i (in the integer form of _pairs)
    units = [tuple(int(k == 2 * i) for k in range(2 * n)) for i in range(n)]
    roots, _ = closure(units, range(n), lambda beta, i: s(i, beta))
    if len(roots) != factor.root_count:
        raise RuntimeError(f"the Cartan matrix of {factor.label} gives "
                           f"{len(roots)} roots, expected {factor.root_count}")
    return RootSystem((factor,), [_unpair(r) for r in sorted(roots)], cartan)


def direct_sum(first: RootSystem, second: RootSystem) -> RootSystem:
    """Orthogonal juxtaposition; factor order and root blocks are preserved."""
    pad1, pad2 = (ZERO,) * second.rank, (ZERO,) * first.rank
    roots = [r + pad1 for r in first.roots] + [pad2 + r for r in second.roots]
    cartan = ([row + pad1 for row in first.cartan]
              + [pad2 + row for row in second.cartan])
    return RootSystem(first.factors + second.factors, roots, cartan)


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
