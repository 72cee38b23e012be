"""Reference answers the benchmark checks every job against.

Nothing here imports the library.  The partition numbers come from
classical identities, by routes the library does not take:

- p(n) from Euler's pentagonal-number recurrence;
- partitions into odd parts counted as partitions into distinct parts
  (Euler's odd = distinct identity), for the A family;
- for the D family, E(n) + O(n) = p(n) and
  E(n) - O(n) = (-1)^n * #(partitions of n into distinct odd parts),
  where E and O count partitions with an even resp. odd number of parts.

The exceptional values are the published table; the dihedral values
follow from the rotation classes {k, -k} of the n-gon group.
"""

from __future__ import annotations

import re
from math import factorial, prod

# (traces, supertraces) of the exceptional groups, as published
EXCEPTIONAL_COUNTS = {("E", 6): (5, 9), ("E", 7): (12, 12), ("E", 8): (30, 30),
                      ("F", 4): (9, 9), ("G", 2): (3, 3),
                      ("H", 3): (4, 4), ("H", 4): (20, 20)}
EXCEPTIONAL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                      ("F", 4): 1152, ("G", 2): 12, ("H", 3): 120, ("H", 4): 14400}
EXCEPTIONAL_CLASSES = {("E", 6): 25, ("E", 7): 60, ("E", 8): 112,
                       ("F", 4): 25, ("G", 2): 6, ("H", 3): 10, ("H", 4): 34}

_FACTOR = re.compile(r"^([ABCDEFGH])(\d+)$|^I2\((\d+)\)$")


def factors(spec: str):
    """(family, n) pairs of a spec string; C is the same group as B."""
    out = []
    for token in spec.split("+"):
        m = _FACTOR.match(token.strip())
        if not m:
            raise ValueError(f"reference cannot read factor {token!r}")
        if m.group(3) is not None:
            out.append(("I", int(m.group(3))))
        else:
            family = "B" if m.group(1) == "C" else m.group(1)
            out.append((family, int(m.group(2))))
    return out


class PartitionNumbers:
    """Growable tables of p(n), distinct-part and distinct-odd-part counts."""

    def __init__(self):
        self._p = [1]
        self._distinct = [1]
        self._distinct_odd = [1]

    def _grow(self, n: int):
        if n < len(self._p):
            return
        size = max(n + 1, 2 * len(self._p))
        p = self._p
        for m in range(len(p), size):
            total = 0
            k = 1
            while True:
                first = m - k * (3 * k - 1) // 2
                if first < 0:
                    break
                second = m - k * (3 * k + 1) // 2
                term = p[first] + (p[second] if second >= 0 else 0)
                total += term if k % 2 else -term
                k += 1
            p.append(total)
        self._distinct = _zero_one_counts(range(1, size), size)
        self._distinct_odd = _zero_one_counts(range(1, size, 2), size)

    def p(self, n: int) -> int:
        self._grow(n)
        return self._p[n]

    def distinct(self, n: int) -> int:
        self._grow(n)
        return self._distinct[n]

    def distinct_odd(self, n: int) -> int:
        self._grow(n)
        return self._distinct_odd[n]

    def even_count(self, n: int) -> int:
        """Partitions of n with an even number of parts, E(n), from
        E(n) + O(n) = p(n) and E(n) - O(n) = (-1)^n * distinct_odd(n)."""
        signed = self.distinct_odd(n) * (1 if n % 2 == 0 else -1)
        return (self.p(n) + signed) // 2


def _zero_one_counts(parts, size: int):
    ways = [1] + [0] * (size - 1)
    for part in parts:
        for m in range(size - 1, part - 1, -1):
            ways[m] += ways[m - part]
    return ways


class Reference:
    """Expected counts, orders and -identity membership of a spec."""

    def __init__(self):
        self.numbers = PartitionNumbers()

    def factor_counts(self, family: str, n: int):
        if family == "A":
            if n == 0:
                return (0, 1)
            # classes without +1: only the (n+1)-cycle; without -1: cycle
            # types with odd parts only, counted as distinct-part partitions
            return (1, self.numbers.distinct(n + 1))
        if family == "B":
            p = self.numbers.p(n)
            return (p, p)
        if family == "D":
            even = self.numbers.even_count(n)
            odd = self.numbers.p(n) - even
            return (even, even) if n % 2 == 0 else (even, odd)
        if family == "I":
            # rotation classes {k, -k}; reflections always have both +1 and -1
            return (n // 2, (n + 1) // 2)
        return EXCEPTIONAL_COUNTS[(family, n)]

    def counts(self, spec: str):
        t, s = 1, 1
        for family, n in factors(spec):
            ft, fs = self.factor_counts(family, n)
            t, s = t * ft, s * fs
        return t, s

    @staticmethod
    def minus_identity(spec: str) -> bool:
        return all(_factor_minus_identity(f, n) for f, n in factors(spec))

    @staticmethod
    def order(spec: str) -> int:
        return prod(_factor_order(f, n) for f, n in factors(spec))

    def class_count(self, spec: str) -> int:
        return prod(self._factor_classes(f, n) for f, n in factors(spec))

    def _factor_classes(self, family: str, n: int) -> int:
        p = self.numbers.p
        if family == "A":
            return p(n + 1)
        if family == "B":
            return sum(p(k) * p(n - k) for k in range(n + 1))
        if family == "D":
            # signed cycle types with an even number of negative cycles;
            # types made of positive even cycles only split in two
            total = sum(self.numbers.even_count(n - k) * p(k)
                        for k in range(n + 1))
            return total + (p(n // 2) if n % 2 == 0 else 0)
        if family == "I":
            return (n + 3) // 2 if n % 2 else (n + 6) // 2
        return EXCEPTIONAL_CLASSES[(family, n)]


def _factor_order(family: str, n: int) -> int:
    if family == "A":
        return factorial(n + 1)
    if family == "B":
        return 2 ** n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    if family == "I":
        return 2 * n
    return EXCEPTIONAL_ORDERS[(family, n)]


def _factor_minus_identity(family: str, n: int) -> bool:
    if family == "A":
        return n == 1
    if family == "D":
        return n % 2 == 0
    if family == "E":
        return n != 6
    if family == "I":
        return n % 2 == 0
    return True  # B, F, G, H


def ordering_theorem_holds(traces: int, supertraces: int, minus: bool) -> bool:
    """S >= 1, T <= S, and T = S exactly when -identity lies in W."""
    return supertraces >= 1 and traces <= supertraces and (traces == supertraces) == minus
