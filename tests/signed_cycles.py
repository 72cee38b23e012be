"""Test oracle: the signed-cycle description of the B/D classes.

A class of the hyperoctahedral group W(B_n) is a signed cycle type: a
pair of partitions, the lengths of the sign-preserving and of the
sign-reversing cycles, of total size n; W(D_n) keeps the types with an
even number of sign-reversing cycles.  The eigenvalue flags come from
the cycle lengths alone, so the counts here are independent of both the
library's group engine and its closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from coxtraces.partitions import TraceCount

_BN_ENUM_BUDGET = 40


@lru_cache(maxsize=None)
def _even_evens_table(n_max: int):
    """Partitions of n with an even number of even summands.

    Tracks the parity of the count of even parts while folding parts in.
    """
    even = [1] + [0] * n_max  # even number of even parts
    odd = [0] * (n_max + 1)
    for part in range(1, n_max + 1):
        if part % 2 == 1:
            for m in range(part, n_max + 1):
                even[m] += even[m - part]
                odd[m] += odd[m - part]
        else:
            for m in range(part, n_max + 1):
                even[m], odd[m] = even[m] + odd[m - part], odd[m] + even[m - part]
    return tuple(even)


def partitions_even_count_of_even_parts(n: int) -> int:
    if n < 0:
        raise ValueError("partition count of a negative integer")
    return _even_evens_table(max(n, 1))[n]


@dataclass(frozen=True)
class SignedCycleType:
    """Class parameters in the hyperoctahedral family.

    plain_cycles lists the lengths of sign-preserving cycles, flipped_cycles
    the lengths of sign-reversing ones; together they partition n.
    """

    plain_cycles: tuple
    flipped_cycles: tuple

    @property
    def n(self) -> int:
        return sum(self.plain_cycles) + sum(self.flipped_cycles)

    @property
    def flip_parity(self) -> int:
        return len(self.flipped_cycles) % 2


def bn_class_eigen_flags(cycle_type: SignedCycleType):
    """(has eigenvalue +1, has eigenvalue -1) for a signed cycle type.

    A sign-preserving cycle of length l contributes the roots of t^l - 1,
    a sign-reversing one the roots of t^l + 1.
    """
    has_plus = bool(cycle_type.plain_cycles)
    has_minus = (any(l % 2 == 0 for l in cycle_type.plain_cycles)
                 or any(l % 2 == 1 for l in cycle_type.flipped_cycles))
    return has_plus, has_minus


def _partitions_of(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            yield (first,) + rest


def bn_dn_class_enumeration(n: int, kind: str = "B",
                            budget: int = _BN_ENUM_BUDGET):
    """All signed-cycle class parameters for the B (or D subset) family.

    For D only the types with an even number of sign-reversing cycles
    survive.  The handful of D classes that split further all keep an
    eigenvalue +1, so trace/supertrace counting is unaffected.
    """
    if kind not in ("B", "D"):
        raise ValueError(f"kind must be 'B' or 'D', got {kind!r}")
    if n < 0:
        raise ValueError("negative rank")
    if n > budget:
        raise ValueError(f"rank {n} above the enumeration budget {budget}")
    out = []
    for plain_total in range(n + 1):
        for plain in _partitions_of(plain_total):
            for flipped in _partitions_of(n - plain_total):
                ct = SignedCycleType(plain, flipped)
                if kind == "D" and ct.flip_parity != 0:
                    continue
                out.append(ct)
    return out


def bn_dn_trace_counts(n: int, kind: str = "B") -> TraceCount:
    """Trace/supertrace counts straight from the cycle-type enumeration."""
    traces = 0
    supertraces = 0
    for ct in bn_dn_class_enumeration(n, kind):
        has_plus, has_minus = bn_class_eigen_flags(ct)
        if not has_plus:
            traces += 1
        if not has_minus:
            supertraces += 1
    return TraceCount(traces, supertraces, "brute_force")
