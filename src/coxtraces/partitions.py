"""Partition combinatorics behind the closed-form class counts.

Every closed A, B and D count is read off one table of p(n), grown in
place by Euler's pentagonal recurrence in O(n sqrt n) (Andrews, The
Theory of Partitions, 1976), with one sum over the O(sqrt n)
generalised pentagonal numbers g = k(3k-1)/2, k in Z, sign (-1)^k:

  p(n) = -sum_{g > 0} (-1)^k p(n - g)          phi(x) P(x) = 1
  Q(n) = sum (-1)^k p(n - 2g)                   odd parts: phi(x^2) P(x)
  d(n) = sum (-1)^k p((n - g)/2), n - g even    1/prod(1 + x^k) = phi(x) P(x^2)

d(n) = E(n) - O(n) splits p(n) by the parity of the number of summands,
and is certified against Gauss's sum_k (-1)^k x^(k^2) = phi(x)^2 /
phi(x^2): q(n) = sum_k (-1)^k p(n - 2k^2) counts the partitions into
distinct odd summands, and d(n) = (-1)^n q(n) must hold.  The generating
-function identity check keeps its own O(n^2) routes, the parity DP and
the odd-part product, apart from the p table.  All of it is exact
integer arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .linalg import CertificateError
from .roots import Factor, refuse_tuple_arithmetic


class TraceCount(namedtuple("TraceCount", "traces supertraces method")):
    """Result of a count: traces (no eigenvalue +1) and supertraces (no -1)."""

    __slots__ = ()

    def __new__(cls, traces, supertraces, method):
        self = super().__new__(cls, traces, supertraces, method)
        # the ordering theorem: a count that breaks it is a failed check
        if supertraces < 1:
            raise CertificateError(f"supertrace count must be positive, "
                                   f"got {self}")
        if not 0 <= traces <= supertraces:
            raise CertificateError(f"trace count out of range in {self}")
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace checks the theorem too
        return cls(*iterable)

    def __mul__(self, other):  # never tuple repetition or concatenation
        if not isinstance(other, TraceCount):
            raise TypeError(f"a TraceCount multiplies only a TraceCount, "
                            f"not {type(other).__name__}")
        return TraceCount(self.traces * other.traces,
                          self.supertraces * other.supertraces, "composed")

    __rmul__ = __mul__  # 2 * count: a TraceCount is never on the left here

    __add__ = __radd__ = refuse_tuple_arithmetic

    def pair(self):
        return (self.traces, self.supertraces)


# -- plain partition counting ---------------------------------------------------


def _series(n_max: int, step: int, distinct: bool):
    """Coefficients up to x^n_max of the product over the parts
    k = 1, 1 + step, 1 + 2 step, ... of 1/(1 - x^k), or of (1 + x^k)
    when the parts are distinct.  Not memoised: the lemma reads each
    series once, and a memo would hold all of them, O(degree^2) ints."""
    ways = [1] + [0] * n_max
    for part in range(1, n_max + 1, step):
        span = (range(n_max, part - 1, -1) if distinct
                else range(part, n_max + 1))
        for m in span:
            ways[m] += ways[m - part]
    return tuple(ways)


def _coefficient(n: int, step: int = 1, distinct: bool = False) -> int:
    if n < 0:
        raise ValueError("partition count of a negative integer")
    return _series(max(n, 1), step, distinct)[n]


def _pentagonal(limit: int):
    """(sign, g) for the generalised pentagonal numbers g = k(3k-1)/2 <= limit,
    k = 0, 1, -1, 2, -2, ..., with sign (-1)^k, in increasing order."""
    terms, k = [(1, 0)], 1
    while k * (3 * k - 1) // 2 <= limit:
        sign, g = (-1) ** k, k * (3 * k - 1) // 2
        terms += [(sign, g)] + ([(sign, g + k)] if g + k <= limit else [])
        k += 1
    return terms


@lru_cache(maxsize=None)
def _p_table():
    """The one list p(0), p(1), ... behind every closed count; _p_upto
    grows it in place, and cache_clear starts it afresh."""
    return [1]


def _p_upto(n: int):
    """The p table, grown in place to hold p(n)."""
    if n < 0:
        raise ValueError("partition count of a negative integer")
    p = _p_table()
    terms = _pentagonal(n)[1:] if len(p) <= n else ()
    for m in range(len(p), n + 1):
        total = 0
        for sign, g in terms:
            if g > m:
                break
            if sign < 0:
                total += p[m - g]
            else:
                total -= p[m - g]
        p.append(total)
    return p


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    return _p_upto(n)[n]


def partitions_odd_parts(n: int) -> int:
    """Number of partitions of n into odd summands."""
    p = _p_upto(n)
    return sum(sign * p[n - 2 * g] for sign, g in _pentagonal(n // 2))


def distinct_odd_partitions(n: int) -> int:
    """Number of partitions of n into distinct odd summands."""
    return _coefficient(n, step=2, distinct=True)


@lru_cache(maxsize=None)
def _parity_difference_table(n_max: int):
    """d[n] = (# partitions with even summand count) - (# with odd count).

    Série of prod 1/(1+x^k): repeated in-place division by (1+x^k).
    """
    diff = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            diff[m] -= diff[m - part]
    return tuple(diff)


def _parity_difference(n: int) -> int:
    """d(n) = E(n) - O(n) from the p table, certified against (-1)^n q(n)."""
    p = _p_upto(n)
    d = sum(sign * p[(n - g) // 2] for sign, g in _pentagonal(n)
            if (n - g) % 2 == 0)
    q = p[n] + 2 * sum((-1) ** k * p[n - 2 * k * k]
                       for k in range(1, isqrt(n // 2) + 1))
    if d != (-1) ** n * q:
        raise CertificateError(
            f"parity split of p({n}) fails its certificate: E - O = {d}, "
            f"but (-1)^n q(n) = {(-1) ** n * q}")
    return d


def partitions_even_summand_count(n: int) -> int:
    """Partitions of n with an even number of summands."""
    return (partition_count(n) + _parity_difference(n)) // 2


def partitions_odd_summand_count(n: int) -> int:
    """Partitions of n with an odd number of summands."""
    return (partition_count(n) - _parity_difference(n)) // 2


def summand_count_table(n_max: int):
    """a[n][m] = number of partitions of n with exactly m summands."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            table[n][m] = table[n - 1][m - 1] + (table[n - m][m] if n >= m else 0)
    return table


# -- the generating-function identity ---------------------------------------------


LemmaVerdict = namedtuple("LemmaVerdict", "ok degree problems")


def lemma_identity_check(degree: int = 500, enumerate_to: int = 40) -> LemmaVerdict:
    """Verify the parity-difference identity two independent ways.

    Route one expands -1/prod(1+x^k) as a power series; route two expands
    -prod over odd k of (1-x^k).  Both give the series of odd-count minus
    even-count partition numbers, whose magnitude is the number of
    partitions into distinct odd summands.  Small degrees are checked a
    third way by direct enumeration, including the two-variable summand
    bookkeeping.
    """
    problems = []
    diff = _parity_difference_table(degree)  # diff[n] = E(n) - O(n)

    # route two: -(1 - x)(1 - x^3)(1 - x^5)...
    sparse = [1] + [0] * degree
    for part in range(1, degree + 1, 2):
        for m in range(degree, part - 1, -1):
            sparse[m] -= sparse[m - part]
    for n in range(degree + 1):
        if -diff[n] != -sparse[n]:
            problems.append(f"series mismatch at degree {n}")
            break

    # sign pattern and magnitude against the distinct-odd enumerator
    for n in range(1, degree + 1):
        r = distinct_odd_partitions(n)
        o_minus_e = -diff[n]
        expected = r if n % 2 == 1 else -r
        if o_minus_e != expected:
            problems.append(f"sign pattern fails at n={n}: "
                            f"O-E={o_minus_e}, expected {expected}")
            break
    if degree >= 2 and diff[2] != 0:
        problems.append("E(2) != O(2)")
    for n in range(4, degree + 1, 2):
        if diff[n] <= 0:
            problems.append(f"E({n}) <= O({n})")
            break
    for n in range(1, degree + 1, 2):
        if diff[n] >= 0:
            problems.append(f"O({n}) <= E({n})")
            break

    # direct enumeration for small n, plus the t-degree bookkeeping
    limit = min(degree, enumerate_to)
    table = summand_count_table(limit)
    for n in range(limit + 1):
        even = sum(table[n][m] for m in range(0, n + 1, 2))
        odd = sum(table[n][m] for m in range(1, n + 1, 2))
        if even - odd != diff[n]:
            problems.append(f"summand-count table disagrees at n={n}")
            break
        if even != partitions_even_summand_count(n) or \
                odd != partitions_odd_summand_count(n):
            problems.append(f"parity split disagrees at n={n}")
            break
        signed = sum((-1) ** m * table[n][m] for m in range(n + 1))
        if signed != diff[n]:
            problems.append(f"signed summand sum disagrees at n={n}")
            break
    return LemmaVerdict(not problems, degree, problems)


# -- closed forms ------------------------------------------------------------------


_FIXED_COUNTS = {("E", 6): (5, 9), ("E", 7): (12, 12), ("E", 8): (30, 30),
                 ("F", 4): (9, 9), ("G", 2): (3, 3),
                 ("H", 3): (4, 4), ("H", 4): (20, 20)}


def closed_form_count(factor: Factor) -> TraceCount:
    """Trace/supertrace counts of one irreducible factor, in closed form."""
    family, n = factor.family, factor.n
    if family == "A":
        if n == 0:
            # the empty system: one class (the identity), which acts as +1
            # on its ambient line, so it carries a supertrace but no trace
            return TraceCount(0, 1, "closed_form")
        return TraceCount(1, partitions_odd_parts(n + 1), "closed_form")
    if family == "B":
        p = partition_count(n)
        return TraceCount(p, p, "closed_form")
    if family == "D":
        even = partitions_even_summand_count(n)
        if n % 2 == 0:
            return TraceCount(even, even, "closed_form")
        return TraceCount(even, partitions_odd_summand_count(n), "closed_form")
    if family == "I":
        return TraceCount(n // 2, (n + 1) // 2, "closed_form")
    t, s = _FIXED_COUNTS[(family, n)]
    return TraceCount(t, s, "closed_form")
