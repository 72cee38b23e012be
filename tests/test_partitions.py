"""Partition combinatorics, signed cycle types, and dihedral classes."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxtraces import partitions
from coxtraces.linalg import CertificateError
from coxtraces.partitions import (TraceCount, _coefficient,
                                  _parity_difference_table, _series,
                                  closed_form_count, distinct_odd_partitions,
                                  lemma_identity_check, partition_count,
                                  partitions_even_summand_count,
                                  partitions_odd_parts,
                                  partitions_odd_summand_count)
from coxtraces.roots import parse_factor
from dihedral import dihedral_classes, dihedral_element_flags, dihedral_mul
from signed_cycles import (SignedCycleType, bn_class_eigen_flags,
                           bn_dn_class_enumeration, bn_dn_trace_counts,
                           partitions_even_count_of_even_parts)


def partitions_distinct_parts(n: int) -> int:
    """Partitions of n into distinct parts, from the library's table."""
    return _coefficient(n, distinct=True)


def _brute_partitions(n, max_part=None):
    """Independent recursive enumerator used as the oracle below."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _brute_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def test_partition_counts_frozen_values():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [partition_count(n) for n in range(11)] == expected


def test_odd_part_counts_frozen_values():
    expected = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    assert [partitions_odd_parts(n) for n in range(11)] == expected


def test_distinct_odd_frozen_values():
    expected = [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2]
    assert [distinct_odd_partitions(n) for n in range(11)] == expected


def test_tables_match_brute_enumeration():
    for n in range(16):
        parts = _brute_partitions(n)
        assert partition_count(n) == len(parts)
        assert partitions_odd_parts(n) == sum(
            1 for p in parts if all(x % 2 == 1 for x in p))
        assert partitions_distinct_parts(n) == sum(
            1 for p in parts if len(set(p)) == len(p))
        assert distinct_odd_partitions(n) == sum(
            1 for p in parts
            if len(set(p)) == len(p) and all(x % 2 == 1 for x in p))
        assert partitions_even_summand_count(n) == sum(
            1 for p in parts if len(p) % 2 == 0)
        assert partitions_odd_summand_count(n) == sum(
            1 for p in parts if len(p) % 2 == 1)
        assert partitions_even_count_of_even_parts(n) == sum(
            1 for p in parts if sum(1 for x in p if x % 2 == 0) % 2 == 0)


def test_euler_identity_distinct_equals_odd():
    for n in range(41):
        assert partitions_distinct_parts(n) == partitions_odd_parts(n)


def test_summand_parity_split_is_exhaustive():
    for n in range(60):
        even = partitions_even_summand_count(n)
        odd = partitions_odd_summand_count(n)
        assert even + odd == partition_count(n)


def test_pentagonal_table_matches_the_dp_routes_to_2000():
    n_max = 2000
    plain, odd = _series(n_max, 1, False), _series(n_max, 2, False)
    diff = _parity_difference_table(n_max)
    for n in range(n_max + 1):
        assert partition_count(n) == plain[n], n
        assert partitions_odd_parts(n) == odd[n], n
        even = partitions_even_summand_count(n)
        assert (even, partitions_odd_summand_count(n)) == \
            ((plain[n] + diff[n]) // 2, (plain[n] - diff[n]) // 2), n


def test_lemma_holds_no_series_after_it_returns():
    # it reads each distinct-odd series once; a memo of them would hold
    # about degree^2 / 2 integers, some 0.5 MB at degree 200.  Start cold,
    # as a command-line call does.
    for value in vars(partitions).values():
        getattr(value, "cache_clear", lambda: None)()
    tracemalloc.start()
    try:
        verdict = lemma_identity_check(200)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert verdict == (True, 200, [])
    assert held < 100_000, held


def test_p_table_grown_rank_by_rank_equals_one_built_at_once():
    partitions._p_table.cache_clear()
    for n in range(700):
        partition_count(n)
    stepwise = list(partitions._p_table())
    partitions._p_table.cache_clear()
    partitions_odd_summand_count(350)   # grow in two uneven steps
    partitions_odd_parts(699)
    assert partitions._p_table() == stepwise
    partitions._p_table.cache_clear()
    assert len(partitions._p_table()) == 1


@pytest.mark.parametrize("corrupt", [300, 150, 100])
def test_corrupted_p_entry_fails_the_d_certificate(monkeypatch, corrupt):
    # p(300) is read by q(300) only, p(150) by d(300) only, p(100) by both
    table = list(partitions._p_upto(300))
    table[corrupt] += 1
    monkeypatch.setattr(partitions, "_p_table", lambda: table)
    with pytest.raises(CertificateError, match=r"parity split of p\(300\)"):
        partitions.partitions_even_summand_count(300)
    with pytest.raises(CertificateError):
        closed_form_count(parse_factor("D300"))


def test_lemma_identity():
    verdict = lemma_identity_check(degree=500, enumerate_to=40)
    assert verdict.ok, verdict.problems
    assert verdict.degree == 500


def test_parity_difference_signs():
    # even n >= 4 has strictly more even-length partitions; odd n the reverse
    assert partitions_even_summand_count(2) == partitions_odd_summand_count(2)
    for n in range(4, 40, 2):
        assert partitions_even_summand_count(n) > partitions_odd_summand_count(n)
    for n in range(1, 40, 2):
        assert partitions_odd_summand_count(n) > partitions_even_summand_count(n)


def test_trace_count_validation():
    # a count that breaks the ordering theorem is a failed certificate
    with pytest.raises(CertificateError):
        TraceCount(2, 1, "closed_form")      # traces above supertraces
    with pytest.raises(CertificateError):
        TraceCount(0, 0, "closed_form")      # supertraces always positive
    with pytest.raises(CertificateError):
        TraceCount(-1, 1, "closed_form")


def test_trace_count_product():
    a = TraceCount(2, 3, "closed_form")
    b = TraceCount(5, 7, "closed_form")
    assert (a * b).pair() == (10, 21)
    assert (a * b).method == "composed"
    # a named tuple, but never tuple repetition or concatenation
    for product in (lambda: a * 2, lambda: 2 * a, lambda: a * (5, 7, "x"),
                    lambda: a + b, lambda: a + (1,)):
        with pytest.raises(TypeError):
            product()


def test_signed_cycle_count_matches_pair_convolution():
    # classes of the signed permutation group correspond to pairs of
    # partitions with total size n
    for n in range(1, 10):
        total = len(bn_dn_class_enumeration(n, "B"))
        expected = sum(partition_count(k) * partition_count(n - k)
                       for k in range(n + 1))
        assert total == expected


def test_signed_cycle_flags():
    assert bn_class_eigen_flags(SignedCycleType((1,), ())) == (True, False)
    assert bn_class_eigen_flags(SignedCycleType((), (1,))) == (False, True)
    assert bn_class_eigen_flags(SignedCycleType((2,), ())) == (True, True)
    assert bn_class_eigen_flags(SignedCycleType((), (2,))) == (False, False)
    assert bn_class_eigen_flags(SignedCycleType((3,), (2, 1))) == (True, True)


def test_edge_case_empty_cycle_type():
    # rank 0: the empty group element acts on nothing, flags both absent
    assert bn_class_eigen_flags(SignedCycleType((), ())) == (False, False)
    assert len(bn_dn_class_enumeration(0, "B")) == 1


def test_b_family_counts_are_partition_numbers():
    for n in range(1, 12):
        counts = bn_dn_trace_counts(n, "B")
        assert counts.pair() == (partition_count(n), partition_count(n))


def test_d_family_counts():
    for n in range(2, 12):
        counts = bn_dn_trace_counts(n, "D")
        even = partitions_even_summand_count(n)
        if n % 2 == 0:
            assert counts.pair() == (even, even)
        else:
            assert counts.pair() == (even, partitions_odd_summand_count(n))


def test_d_supertrace_count_dual_description():
    # the D classes without eigenvalue -1 have all sign-preserving cycles
    # odd and all sign-reversing cycles even, so they biject with partitions
    # of n having an even number of even parts; that count in turn equals
    # the even/odd summand-count table entry depending on the parity of n
    for n in range(2, 24):
        supertraces = bn_dn_trace_counts(n, "D").supertraces
        dual = partitions_even_count_of_even_parts(n)
        assert supertraces == dual
        assert dual == sum(
            1 for ct in bn_dn_class_enumeration(n, "D")
            if not bn_class_eigen_flags(ct)[1])


def test_bn_enumeration_budget():
    with pytest.raises(ValueError):
        bn_dn_class_enumeration(100)
    with pytest.raises(ValueError):
        bn_dn_class_enumeration(5, "X")


def test_dihedral_group_relations():
    n = 7
    identity = ("s", 0)
    for k in range(n):
        rot = ("s", k)
        ref = ("r", k)
        assert dihedral_mul(ref, ref, n) == identity
        assert dihedral_mul(rot, ("s", (n - k) % n), n) == identity
    # conjugating a rotation by any reflection inverts it
    for k in range(n):
        conj = dihedral_mul(dihedral_mul(("r", 0), ("s", k), n), ("r", 0), n)
        assert conj == ("s", (n - k) % n)


@given(st.integers(min_value=3, max_value=12),
       st.data())
def test_dihedral_multiplication_associates(n, data):
    def element(label):
        kind = data.draw(st.sampled_from("sr"), label=label + "-kind")
        return (kind, data.draw(st.integers(0, n - 1), label=label + "-turn"))

    x, y, z = element("x"), element("y"), element("z")
    assert dihedral_mul(dihedral_mul(x, y, n), z, n) == \
        dihedral_mul(x, dihedral_mul(y, z, n), n)


def test_dihedral_class_counts_match_closed_form():
    for n in range(3, 31):
        summary = dihedral_classes(n)
        assert summary.counts().pair() == (n // 2, (n + 1) // 2), n
        # rotations split into ceil((n+1)/2) classes; reflections into 1 or 2
        assert summary.reflection_classes == (1 if n % 2 else 2)
        assert summary.rotation_classes == n // 2 + 1
        assert sum(len(c) for c in summary.classes) == 2 * n


def test_dihedral_rejects_degenerate_polygons():
    with pytest.raises(ValueError):
        dihedral_classes(2)


def test_dihedral_flags():
    assert dihedral_element_flags(("s", 0), 6) == (True, False)
    assert dihedral_element_flags(("s", 3), 6) == (False, True)   # half turn
    assert dihedral_element_flags(("s", 1), 6) == (False, False)
    assert dihedral_element_flags(("r", 2), 6) == (True, True)
    assert dihedral_element_flags(("s", 2), 5) == (False, False)


def test_closed_forms_fixed_table():
    table = {
        "A0": (0, 1), "A1": (1, 1), "A2": (1, 2), "A4": (1, 3),
        "B2": (2, 2), "B4": (5, 5), "D4": (3, 3), "D5": (3, 4),
        "E6": (5, 9), "E7": (12, 12), "E8": (30, 30), "F4": (9, 9),
        "G2": (3, 3), "H3": (4, 4), "H4": (20, 20),
        "I2(5)": (2, 3), "I2(6)": (3, 3), "I2(7)": (3, 4),
    }
    for label, pair in table.items():
        assert closed_form_count(parse_factor(label)).pair() == pair, label


def test_closed_form_matches_cycle_enumeration():
    for n in range(2, 11):
        assert closed_form_count(parse_factor(f"B{n}")).pair() == \
            bn_dn_trace_counts(n, "B").pair()
        assert closed_form_count(parse_factor(f"D{n}")).pair() == \
            bn_dn_trace_counts(n, "D").pair()


def test_closed_form_matches_dihedral_enumeration():
    for n in range(3, 25):
        assert closed_form_count(parse_factor(f"I2({n})")).pair() == \
            dihedral_classes(n).counts().pair()
