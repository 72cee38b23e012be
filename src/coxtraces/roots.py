"""Finite root systems in simple-root coordinates.

Each factor is given by its Cartan matrix a_ij = 2(alpha_i, alpha_j) /
(alpha_i, alpha_i).  Its roots are the orbit of the simple roots
alpha_i = e_i under the simple reflections s_i(beta) = beta -
<beta, alpha_i^vee> alpha_i, written as coordinate vectors in the simple
basis.  Every entry and coordinate lies in one ring per system,
Z[2cos(pi/N)] (coxtraces.linalg.Ring), and each factor is built in it
directly.  N is the lcm over the factors of 5 for H3 and H4, m for
I2(m) with m odd and m/2 for m even, where a value of 3 or less counts
as 1: Weyl groups get the integers, H3, H4, I2(5) and I2(10) the golden
integers Z[phi].

  A(n)    a chain (A0 has no roots; its fixed line is a trivial_dim)
  B(n)    a chain whose node 0 is the short root (C(n) is read as B(n))
  D(n)    nodes 0 and 1 both attached to node 2, then a chain
  E6..8, F4, G2, H3, H4   fixed edge lists; the 0-2 edge of H is -phi
  I2(m)   (a_01, a_10) = (-2cos(pi/m), -2cos(pi/m)) for odd m and
          (-1, -2 - 2cos(2pi/m)) for even m, with a_01 a_10 =
          4cos^2(pi/m); I2(4) and I2(6) keep the pairs of B2 and G2

The node order, and the orientation of I2(4) and I2(6), is the one in
which earlier releases found the simple roots of their vector models,
so element ids, class order and every printed report stay the same.
|W|, |R| and whether -1 lies in W are read off the degrees of the basic
invariants.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import lcm, log10, prod

from .linalg import CertificateError, Ring, coordinate_ring

# the degrees of the basic invariants (Humphreys, Reflection Groups and
# Coxeter Groups, Table 3.1) and the Cartan edges: (i, j) for
# a_ij = a_ji = -1, or (i, j, a_ij, a_ji); the 0-2 edge of H is -phi
_EXCEPTIONAL = {
    ("E", 6): ((2, 5, 6, 8, 9, 12),
               ((0, 2), (0, 5), (1, 2), (1, 4), (2, 3))),
    ("E", 7): ((2, 6, 8, 10, 12, 14, 18),
               ((0, 6), (1, 3), (2, 3), (2, 6), (3, 4), (4, 5))),
    ("E", 8): ((2, 8, 12, 14, 18, 20, 24, 30),
               ((0, 2), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    ("F", 4): ((2, 6, 8, 12), ((0, 1, -2, -1), (0, 3), (1, 2))),
    ("G", 2): ((2, 6), ((0, 1, -3, -1),)),
    ("H", 3): ((2, 6, 10), ((1, 2),)),
    ("H", 4): ((2, 12, 20, 30), ((1, 2), (1, 3))),
}

# the numbers of conjugacy classes (Carter, Conjugacy classes in the Weyl
# group, 1972; Geck and Pfeiffer, Characters of Finite Coxeter Groups and
# Iwahori-Hecke Algebras, 2000)
_EXCEPTIONAL_CLASSES = {("E", 6): 25, ("E", 7): 60, ("E", 8): 112,
                        ("F", 4): 25, ("G", 2): 6, ("H", 3): 10, ("H", 4): 34}

# I2(4) and I2(6): (a_01, a_10) of B2 and G2
_I2_CRYSTAL = {4: (-2, -1), 6: (-3, -1)}


# the widest coordinate ring, Z[2cos(pi/128)] of degree 64; every single
# I2(m) within the 256-root limit of enumeration needs N <= 127
_MAX_RING_INDEX = 128


class SpecParseError(ValueError):
    """Raised for malformed or out-of-range system descriptions."""


class BudgetExceededError(RuntimeError):
    """A request is past the engine's limits or the enumeration budget."""


def refuse_tuple_arithmetic(self, other):
    """The records are named tuples that never concatenate, repeat or
    order as tuples; equality with a plain tuple stays."""
    raise TypeError(f"{type(self).__name__} records do no tuple arithmetic")


class Factor(namedtuple("Factor", "family n")):
    """One irreducible factor of a system description, e.g. A3 or I2(7)."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = refuse_tuple_arithmetic
    __lt__ = __le__ = __gt__ = __ge__ = refuse_tuple_arithmetic

    @property
    def label(self) -> str:
        return f"I2({self.n})" if self.family == "I" else f"{self.family}{self.n}"

    @property
    def degrees(self) -> tuple:
        """Degrees of the basic invariants; A0 has none."""
        n = self.n
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family == "B":
            return tuple(range(2, 2 * n + 1, 2))
        if self.family == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        if self.family == "I":
            return (2, n)
        return _EXCEPTIONAL[(self.family, n)][0]

    @property
    def class_count(self) -> int:
        """The number of conjugacy classes of W, from no enumeration: the
        (signed) cycle types for A, B and D, read off p(k) and the number
        E(k) of partitions of k into an even number of parts."""
        family, n = self.family, self.n
        if family == "I":
            return (n + 3) // 2 if n % 2 else n // 2 + 3
        if family not in "ABD":
            return _EXCEPTIONAL_CLASSES[(family, n)]
        p, d = [1] + [0] * (n + 1), [1] + [0] * (n + 1)  # d(k) = 2E(k) - p(k)
        for part in range(1, n + 2):
            for m in range(part, n + 2):
                p[m] += p[m - part]
                d[m] -= d[m - part]
        if family == "A":
            return p[n + 1]
        if family == "B":
            return sum(p[k] * p[n - k] for k in range(n + 1))
        # an even number of negative cycles; all-even positive types split
        return (sum(p[n - k] * (p[k] + d[k]) // 2 for k in range(n + 1))
                + (0 if n % 2 else p[n // 2]))

    @property
    def order(self) -> int:
        """|W|, the product of the degrees."""
        return prod(self.degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def root_count(self) -> int:
        """|R|, twice the sum of the degrees minus one."""
        return 2 * sum(d - 1 for d in self.degrees)

    @property
    def contains_minus_identity(self) -> bool:
        """Whether -identity lies in the group: exactly when every degree
        is even, except for A0, which fixes its line."""
        return self.rank > 0 and all(d % 2 == 0 for d in self.degrees)


_FACTOR_RE = re.compile(r"^(A|B|C|D|E|F|G|H)(\d+)$|^I2\((\d+)\)$")


# the highest classical rank: `count` of any one A, B or D factor up to
# it takes about 1 s, half of it printing |W| (quadratic in its digits)
MAX_CLASSICAL_RANK = 20000

# the ranks each family accepts, as (lowest, highest or None)
_RANKS = {"A": (0, MAX_CLASSICAL_RANK), "B": (2, MAX_CLASSICAL_RANK),
          "C": (2, MAX_CLASSICAL_RANK), "D": (2, MAX_CLASSICAL_RANK),
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


# the most decimal digits |W| of a whole spec may have: `count` prints
# |W| in time quadratic in its digits, and two factors at the rank bound
# (166,716 digits) take about 1 s wall
MAX_ORDER_DIGITS = 170000


def parse_system_spec(spec: str) -> tuple:
    """Parse 'FACTOR + FACTOR + ...' into a tuple of Factors, refusing a
    system whose |W| has more than MAX_ORDER_DIGITS digits."""
    if not spec or not spec.strip():
        raise SpecParseError("empty system description")
    factors = tuple(parse_factor(tok) for tok in spec.split("+"))
    # a factor has at most n degrees (I2(n) has two), each at most
    # max(2n, 30): the exact sum over the degrees is taken only when that
    # bound is past the limit, which no spec of ranks up to 1,000 reaches
    bound = sum((2 if f.family == "I" else f.n) * log10(max(2 * f.n, 30))
                for f in factors)
    if bound > MAX_ORDER_DIGITS:
        digits = sum(sum(map(log10, f.degrees)) for f in factors)
        if digits > MAX_ORDER_DIGITS:
            raise SpecParseError(f"|W| of {spec!r} has about {digits:,.0f} "
                                 f"digits, past the limit of "
                                 f"{MAX_ORDER_DIGITS:,}")
    return factors


def system_label(factors) -> str:
    return "+".join(f.label for f in factors)


def system_order(factors) -> int:
    return prod(f.order for f in factors)


def ring_index(factors) -> int:
    """N of the system's coordinate ring Z[2cos(pi/N)]: the lcm of 5 for
    each H factor, m for I2(m) with m odd and m/2 for m even, where a
    value of 3 or less counts as 1 (2cos(pi/k) is then an integer)."""
    index = 1
    for f in factors:
        k = 1
        if f.family == "H":
            k = 5
        elif f.family == "I":
            k = f.n if f.n % 2 else f.n // 2
        index = lcm(index, k if k > 3 else 1)
    return index


def checked_ring_index(factors) -> int:
    """ring_index, refused past _MAX_RING_INDEX before any ring is built:
    the ring alone can take longer to construct than any enumeration."""
    index = ring_index(factors)
    if index > _MAX_RING_INDEX:
        raise BudgetExceededError(
            f"{system_label(factors)} needs coordinates in "
            f"Z[2cos(pi/{index})], past the ring limit "
            f"N <= {_MAX_RING_INDEX}")
    return index


def _ring_of(factors) -> Ring:
    return coordinate_ring(checked_ring_index(factors))


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
        return []
    return _EXCEPTIONAL[(factor.family, n)][1]


def _dihedral_pair(m: int, ring: Ring) -> tuple:
    """(a_01, a_10) of I2(m)."""
    if m in _I2_CRYSTAL:
        return tuple(map(ring.integer, _I2_CRYSTAL[m]))
    if m % 2:
        entry = ring.neg(ring.two_cos(m))
        return entry, entry
    return ring.integer(-1), ring.sub(ring.integer(-2), ring.two_cos(m // 2))


def cartan_matrix(factor: Factor, ring: Ring | None = None) -> tuple:
    """The Cartan matrix a_ij = <alpha_j, alpha_i^vee> in simple-root
    order, over the factor's own ring unless another one is given."""
    ring = ring or _ring_of((factor,))
    n = factor.rank
    rows = [[ring.integer(2 if i == j else 0) for j in range(n)]
            for i in range(n)]
    for i, j, *pair in _edges(factor):
        rows[i][j], rows[j][i] = map(ring.integer, pair or (-1, -1))
    if factor.family == "H":
        rows[0][2] = rows[2][0] = ring.neg(ring.two_cos(5))
    if factor.family == "I":
        rows[0][1], rows[1][0] = _dihedral_pair(factor.n, ring)
    return tuple(tuple(row) for row in rows)


def _units(ring: Ring, n: int) -> list:
    """The simple roots e_0, ..., e_n-1."""
    return [tuple(ring.one if i == j else ring.zero for j in range(n))
            for i in range(n)]


def _reflections(ring: Ring, cartan) -> list:
    """The simple reflections s_i on roots: only coordinate i moves, by
    <beta, alpha_i^vee> = sum_j a_ij beta_j."""
    def reflection(i, row):
        def s(beta):
            moved = ring.sub(beta[i], ring.dot(row, beta))
            return beta[:i] + (moved,) + beta[i + 1:]
        return s
    return [reflection(i, row) for i, row in enumerate(cartan)]


# -- the one closure, for roots and every group model ------------------------


def closure(seeds, gens, act):
    """BFS closure of the seeds under x -> act(x, g) for g in gens: the
    elements in discovery order, the id map and the layer sizes."""
    elements = list(seeds)
    index = {x: i for i, x in enumerate(elements)}
    frontier, layers = list(elements), []
    while frontier:
        layers.append(len(frontier))
        fresh = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    fresh.append(y)
        frontier = fresh
    return elements, index, layers


# -- the system object ----------------------------------------------------------


class RootSystem:
    """A finite root system: roots in simple-root coordinates over one
    ring, the Cartan matrix of the simple roots, and factor bookkeeping.

    trivial_dims counts directions carrying no roots that still take part
    in the spectrum convention: each A0 factor contributes one such
    direction, on which every group element acts as +1.
    """

    def __init__(self, factors, roots, cartan, ring: Ring):
        self.factors = tuple(factors)
        self.roots = tuple(roots)
        self.cartan = tuple(cartan)
        self.ring = ring
        self._root_index = None
        self._simple = None
        self._reflections = None
        self._positive = None
        self._negation = None

    @property
    def label(self) -> str:
        return system_label(self.factors)

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
            self._simple = tuple(self.root_index[e]
                                 for e in _units(self.ring, self.rank))
        return self._simple

    @property
    def simple_reflections(self) -> tuple:
        """Root permutation of each simple reflection, one byte per root
        (the element format of coxtraces.group)."""
        if self._reflections is None:
            index = self.root_index
            self._reflections = tuple(
                bytes(index[s(beta)] for beta in self.roots)
                for s in _reflections(self.ring, self.cartan))
        return self._reflections

    @property
    def positive(self) -> bytes:
        """Byte mask of the positive roots: the closure of the simple roots
        under the simple reflections, s_i not applied to alpha_i (it
        permutes the other positive roots), so no sign is ever read."""
        if self._positive is None:
            gens = list(zip(self.simple_reflections, self.simple_root_indices))
            found = set(closure(self.simple_root_indices, gens,
                                lambda r, g: r if r == g[1] else g[0][r])[0])
            self._positive = bytes(r in found for r in range(len(self.roots)))
        return self._positive

    @property
    def negation(self) -> bytes:
        """Root permutation of -1: each root to its negative."""
        if self._negation is None:
            neg, index = self.ring.neg, self.root_index
            self._negation = bytes(index[tuple(map(neg, r))] for r in self.roots)
        return self._negation

    def __repr__(self):
        return f"RootSystem({self.label}, {len(self.roots)} roots, rank {self.rank})"


def build_irreducible(factor: Factor, ring: Ring | None = None) -> RootSystem:
    """Roots of one irreducible factor (none for A0), over the factor's own
    ring unless another one is given."""
    ring = ring or _ring_of((factor,))
    cartan = cartan_matrix(factor, ring)
    roots = closure(_units(ring, len(cartan)), _reflections(ring, cartan),
                    lambda beta, s: s(beta))[0]
    if len(roots) != factor.root_count:
        raise CertificateError(f"the Cartan matrix of {factor.label} gives "
                               f"{len(roots)} roots, expected "
                               f"{factor.root_count}")
    return RootSystem((factor,), sorted(roots), cartan, ring)


def direct_sum(first: RootSystem, second: RootSystem) -> RootSystem:
    """Orthogonal juxtaposition of two systems over the same ring; factor
    order and root blocks are preserved."""
    if first.ring.n != second.ring.n:
        raise ValueError(f"{first.label} and {second.label} have different "
                         "coordinate rings; build the sum with build_system")
    zero = first.ring.zero
    pad1, pad2 = (zero,) * second.rank, (zero,) * first.rank
    roots = [r + pad1 for r in first.roots] + [pad2 + r for r in second.roots]
    cartan = ([row + pad1 for row in first.cartan]
              + [pad2 + row for row in second.cartan])
    return RootSystem(first.factors + second.factors, roots, cartan, first.ring)


def build_system(factors) -> RootSystem:
    """The roots of a system, every factor built in the system's ring."""
    factors = tuple(factors)
    if not factors:
        raise SpecParseError("a system needs at least one factor")
    ring = _ring_of(factors)
    system = build_irreducible(factors[0], ring)
    for factor in factors[1:]:
        system = direct_sum(system, build_irreducible(factor, ring))
    return system


def system_from_spec(spec: str) -> RootSystem:
    return build_system(parse_system_spec(spec))
