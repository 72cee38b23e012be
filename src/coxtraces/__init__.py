"""Trace and supertrace counting for finite reflection groups.

A finite reflection group acts on the span of its root system; a
conjugacy class contributes an independent trace invariant exactly when
its elements have no eigenvalue +1, and an independent supertrace
invariant exactly when they have no eigenvalue -1.  This package counts
both kinds of class for any finite root system, either by enumerating
the group and its conjugacy classes exactly (integer arithmetic over
Z[2cos(pi/N)]) or by closed-form combinatorics, and cross-checks the two
routes against each other.
"""

from __future__ import annotations

from .linalg import CertificateError, Matrix, Ring, poly_str
from .roots import (Factor, RootSystem, SpecParseError, build_irreducible,
                    build_system, cartan_matrix, parse_factor,
                    parse_system_spec, system_from_spec)
from .group import (DEFAULT_BUDGET, HEAVY_THRESHOLD, BudgetExceededError,
                    CacheFormatError, Group, GroupElement, generate_group,
                    load_group, save_group, shared_group)
from .partitions import (LemmaVerdict, TraceCount, closed_form_count,
                         distinct_odd_partitions, lemma_identity_check,
                         partition_count, partitions_even_summand_count,
                         partitions_odd_parts, partitions_odd_summand_count)
from .classes import (ConjugacyClass, FactorMinusIdentity, InequalityVerdict,
                      conjugacy_classes, count, count_brute_force,
                      verify_inequality_theorem)

__version__ = "0.1.0"

__all__ = [
    "CertificateError", "Matrix", "Ring", "poly_str",
    "Factor", "RootSystem", "SpecParseError", "build_irreducible",
    "build_system", "cartan_matrix", "parse_factor", "parse_system_spec",
    "system_from_spec",
    "Group", "GroupElement", "BudgetExceededError", "CacheFormatError",
    "DEFAULT_BUDGET", "HEAVY_THRESHOLD",
    "generate_group", "shared_group", "save_group", "load_group",
    "TraceCount", "LemmaVerdict",
    "closed_form_count", "partition_count", "partitions_odd_parts",
    "distinct_odd_partitions", "partitions_even_summand_count",
    "partitions_odd_summand_count", "lemma_identity_check",
    "ConjugacyClass", "FactorMinusIdentity", "InequalityVerdict",
    "conjugacy_classes", "count", "count_brute_force",
    "verify_inequality_theorem",
]
