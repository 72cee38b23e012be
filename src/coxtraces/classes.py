"""Conjugacy classes, eigenvalue flags and the trace/supertrace counts.

The brute-force path enumerates classes as orbits under conjugation by
a certified generating set of the group (Group.walk_set), reads
eigenvalue membership and the determinant off the exact characteristic
polynomial of one representative per class, over the system's ring
Z[2cos(pi/N)], and checks the class sizes against the degrees of the
basic invariants and the number of classes against Factor.class_count.
The closed-form path multiplies the per-factor formulas and works on
parsed Factors only: it never builds a root system.  Both are exposed through count(), and the theorem checker
compares the equality case T = S against actual -identity membership.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from math import prod
from operator import add, mul

from .group import (DEFAULT_BUDGET, BudgetExceededError, Group, GroupElement,
                    check_enumerable, check_fixed_limits,
                    contains_minus_identity, generate_group)
from .linalg import CertificateError, charpoly_from_traces, poly_str
from .partitions import TraceCount, closed_form_count
from .roots import (Factor, RootSystem, build_irreducible, build_system,
                    parse_system_spec, system_label)


class ConjugacyClass(namedtuple(
        "ConjugacyClass", "representative size det char_poly has_plus_one "
                          "has_minus_one")):
    """One conjugacy class: its representative (Group.class_orbits) plus
    invariants.  The charpoly coefficients are elements of the system's
    ring, and the determinant is the int +1 or -1."""

    __slots__ = ()

    @property
    def char_poly_str(self) -> str:
        return poly_str(self.char_poly,
                        text=self.representative.group.system.ring.text)


def _eigen_flags(system: RootSystem, char_poly) -> tuple:
    """(has +1, has -1) from det(tI - M) at t = 1 and t = -1, coordinate
    by coordinate in the ring; the rootless directions of A0 factors add
    eigenvalue +1."""
    coords = list(zip(*char_poly))
    plus = not any(sum(c) for c in coords) or system.trivial_dims > 0
    minus = not any(sum(x if k % 2 == 0 else -x for k, x in enumerate(c))
                    for c in coords)
    return plus, minus


def conjugacy_classes(group: Group):
    """All conjugacy classes, in the order of Group.class_orbits.

    Eigen flags and determinant come from one characteristic polynomial
    per class (det M = (-1)^r det(0I - M)), from the power traces of its
    representative (Group.power_traces); no matrix is built.
    """
    system, out = group.system, []
    ring, sign = system.ring, (-1) ** system.rank
    for seed, size in group.class_orbits():
        char_poly = charpoly_from_traces(ring, group.power_traces(seed))
        plus, minus = _eigen_flags(system, char_poly)
        c0 = char_poly[0]
        if abs(c0[0]) != 1 or any(c0[1:]):
            raise CertificateError(f"det(-M) = {ring.text(c0)} is not "
                                   f"+-1 for class of id {seed}")
        out.append(ConjugacyClass(GroupElement(group, seed), size,
                                  c0[0] * sign, char_poly, plus, minus))
    if (total := sum(c.size for c in out)) != group.order:
        raise CertificateError(f"classes cover {total} of {group.order} elements")
    expected = prod(f.class_count for f in system.factors)
    if len(out) != expected:
        raise CertificateError(f"{len(out)} classes found, but "
                               f"{system.label} has {expected}")
    _certify_fixed_dims(system, out)
    return out


def _fixed_dim(char_poly) -> int:
    """dim Fix M, the multiplicity of the root 1 of det(tI - M) (M is
    orthogonal, so diagonalizable): repeated synthetic division by t - 1,
    additions only."""
    poly, dim = list(char_poly), 0
    while not any(map(sum, zip(*poly))):
        quotient = [poly[-1]]
        for c in reversed(poly[1:-1]):
            quotient.append(tuple(map(add, c, quotient[-1])))
        poly, dim = quotient[::-1], dim + 1
    return dim


def _certify_fixed_dims(system: RootSystem, classes) -> None:
    """Raise unless sum_C |C| t^(dim Fix w_C) = t^trivial_dims prod_i
    (t + d_i - 1) over the degrees d_i (Shephard-Todd 1954, Solomon 1963)."""
    found = [0] * (system.rank + system.trivial_dims + 1)
    for c in classes:
        found[_fixed_dim(c.char_poly) + system.trivial_dims] += c.size
    expected = [0] * system.trivial_dims + [1]
    for d in (d for f in system.factors for d in f.degrees):
        # multiply by t + d - 1
        expected = [(d - 1) * a + b for a, b in zip(expected + [0],
                                                    [0] + expected)]
    if found != expected:
        raise CertificateError(f"class sizes by fixed dimension {found} are "
                               f"not the degree product {expected} of "
                               f"{system.label}")


def count_brute_force(group: Group) -> TraceCount:
    """Trace/supertrace counts by full class enumeration, certified to have
    T = S exactly when -identity lies in W (decided with no enumeration)."""
    classes = conjugacy_classes(group)
    t = sum(not c.has_plus_one for c in classes)
    s = sum(not c.has_minus_one for c in classes)
    if (t == s) != contains_minus_identity(group.system):
        raise CertificateError(f"{group.system.label}: T = {t}, S = {s}, "
                               "but T = S exactly when -identity is in W")
    return TraceCount(t, s, "brute_force")


def _factors_of(system_or_spec) -> tuple:
    """The Factors of a RootSystem, a spec string or a sequence of Factors."""
    if isinstance(system_or_spec, RootSystem):
        return system_or_spec.factors
    if isinstance(system_or_spec, str):
        return parse_system_spec(system_or_spec)
    return tuple(system_or_spec)


def count(system_or_spec, strategy: str = "auto",
          budget: int = DEFAULT_BUDGET) -> TraceCount:
    """Count traces and supertraces for a (possibly composite) system: a
    RootSystem, a spec string or a sequence of Factors.

    strategy 'closed' (and 'auto', which prefers it — every supported
    factor has a closed form) multiplies the per-factor formulas;
    'brute' enumerates the classes of the full direct-sum group, and
    builds its roots only once check_enumerable has let it through.
    """
    if strategy not in ("auto", "closed", "brute"):
        raise ValueError(f"unknown strategy {strategy!r}")
    factors = _factors_of(system_or_spec)
    if strategy == "brute":
        if not isinstance(system_or_spec, RootSystem):
            check_enumerable(factors, budget)
            system_or_spec = build_system(factors)
        return count_brute_force(generate_group(system_or_spec, budget=budget))
    result = reduce(mul, map(closed_form_count, factors))
    if len(factors) > 1:
        return TraceCount(result.traces, result.supertraces, "composed")
    return result


# method is 'engine' or 'table'
FactorMinusIdentity = namedtuple("FactorMinusIdentity", "label method present")


class InequalityVerdict(namedtuple(
        "InequalityVerdict", "label traces supertraces minus_identity "
                             "factor_results s_positive t_le_s "
                             "equality_iff_minus_identity")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.s_positive and self.t_le_s and self.equality_iff_minus_identity


@lru_cache(maxsize=None)
def _factor_contains_minus_identity(factor: Factor) -> bool:
    """contains_minus_identity on the factor's own roots, built once per
    factor: random suites draw the same factors again and again."""
    return contains_minus_identity(build_irreducible(factor))


def verify_inequality_theorem(system_or_spec) -> InequalityVerdict:
    """Check S > 0, T <= S, and T = S exactly when -identity is in the group.

    -identity membership is established on each factor's own roots by
    comparing the certified w0 with -1 (contains_minus_identity), with no
    enumeration; only a factor past the root or ring limit falls back to
    the degree table.  The composite system's roots are never built.
    """
    factors = _factors_of(system_or_spec)
    counts = count(factors, strategy="closed")
    factor_results = []
    minus = True
    for factor in factors:
        try:  # nothing is enumerated: only the fixed limits apply
            check_fixed_limits((factor,))
        except BudgetExceededError:
            present, method = factor.contains_minus_identity, "table"
        else:
            present = _factor_contains_minus_identity(factor)
            method = "engine"
        factor_results.append(FactorMinusIdentity(factor.label, method,
                                                  present))
        minus = minus and present
    t, s = counts.pair()
    return InequalityVerdict(
        label=system_label(factors),
        traces=t,
        supertraces=s,
        minus_identity=minus,
        factor_results=factor_results,
        s_positive=s > 0,
        t_le_s=t <= s,
        equality_iff_minus_identity=(t == s) == minus,
    )


__all__ = [
    "ConjugacyClass", "TraceCount", "conjugacy_classes", "count",
    "count_brute_force", "verify_inequality_theorem",
    "InequalityVerdict", "FactorMinusIdentity", "parse_system_spec",
]
