"""Conjugacy classes, eigenvalue counting, and the ordering theorem."""

from __future__ import annotations

from math import prod

import pytest

from coxtraces import classes as classes_module
from coxtraces import group as group_module
from coxtraces.classes import (conjugacy_classes, count, count_brute_force,
                               verify_inequality_theorem)
from coxtraces.group import Group, GroupElement, generate_group, shared_group
from coxtraces.linalg import CertificateError
from coxtraces.partitions import closed_form_count
from coxtraces.roots import parse_factor, parse_system_spec, system_from_spec
from dihedral import dihedral_classes
from signed_cycles import bn_dn_class_enumeration
from test_group import _orbits_by_closure


def has_eigenvalue(g: GroupElement, value: int) -> bool:
    """Exact test for eigenvalue +1 or -1 on the counting space, from g's
    own det(tI - M) at t = value; the rootless directions of A0 factors
    add eigenvalue +1."""
    if value not in (1, -1):
        raise ValueError("only the eigenvalues +1 and -1 are tracked")
    group = g.group
    ring = group.system.ring
    poly = group.span_matrix_of(g.index).charpoly()
    at = ring.dot(poly, [ring.integer(value ** k) for k in range(len(poly))])
    return at == ring.zero or (value == 1 and group.system.trivial_dims > 0)


def _partition_numbers(n_max: int) -> list:
    """p(0), ..., p(n_max), part by part (none of the library's tables)."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            p[m] += p[m - part]
    return p


P = _partition_numbers(8)

# Carter, Conjugacy classes in the Weyl group (1972), and the icosahedral
# groups (Geck-Pfeiffer 2000)
EXCEPTIONAL_CLASS_COUNTS = {"E6": 25, "F4": 25, "G2": 6, "H3": 10, "H4": 34}


def classical_class_count(factor) -> int:
    """The number of conjugacy classes of W(factor), without its group."""
    n = factor.n
    if factor.family == "A":
        return P[n + 1]
    if factor.family == "B":
        return sum(P[k] * P[n - k] for k in range(n + 1))
    if factor.family == "D":
        # signed cycle types with an even number of sign-reversing cycles;
        # those with only even sign-preserving cycles split in two
        types = bn_dn_class_enumeration(n, "D")
        return len(types) + sum(1 for t in types if not t.flipped_cycles and
                                all(k % 2 == 0 for k in t.plain_cycles))
    if factor.family == "I":
        return (n + 3) // 2 if n % 2 else n // 2 + 3
    return EXCEPTIONAL_CLASS_COUNTS[factor.label]


@pytest.mark.parametrize(
    "spec", [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)]
    + ["D4", "D5", "D6", "E6", "F4", "G2", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 31)] + ["B3+I2(5)", "D4+A2+A0"])
def test_class_counts(spec):
    # the enumerated classes against the classical class numbers; a
    # product system has the product of its factors' numbers
    group = shared_group(system_from_spec(spec))
    classes = conjugacy_classes(group)
    assert len(classes) == prod(map(classical_class_count,
                                    parse_system_spec(spec)))
    assert sum(c.size for c in classes) == group.order


@pytest.mark.parametrize(
    "spec", [f"A{n}" for n in range(8)] + [f"B{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(2, 9)] + ["E6", "F4", "G2", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 41)])
def test_factor_class_count_is_the_classical_number(spec):
    factor = parse_factor(spec)
    assert factor.class_count == classical_class_count(factor)


def test_factor_class_count_values():
    counts = {label: parse_factor(label).class_count
              for label in ("D2", "D3", "D4", "D5", "D6", "E7", "E8", "A19",
                            "B10")}
    assert counts == {"D2": 4, "D3": 5, "D4": 13, "D5": 18, "D6": 37,
                      "E7": 60, "E8": 112, "A19": 627, "B10": 481}


def test_walk_set_that_splits_classes_fails_the_class_count(monkeypatch):
    # the B4 walk set without its long reflection walks finer classes
    # whose sizes by fixed dimension still match the degrees; with the
    # walk-set certificate patched out, the class count must refuse them
    group = generate_group(system_from_spec("B4"))
    long_root = group.system.simple_reflections[1]
    short_only = [g for g in group.walk_set() if g != long_root]
    monkeypatch.setattr(Group, "walk_set", lambda self: short_only)
    monkeypatch.setattr(group_module, "_certify_walk_set",
                        lambda walk, simple: None)
    with pytest.raises(CertificateError,
                       match=r"^\d+ classes found, but B4 has 20$"):
        conjugacy_classes(group)


def test_identity_class():
    group = shared_group(system_from_spec("B3"))
    classes = conjugacy_classes(group)
    identity_cls = next(c for c in classes if c.size == 1 and c.det == 1
                        and c.has_plus_one and not c.has_minus_one)
    assert identity_cls.representative == group.identity


def test_full_cycle_has_no_fixed_vector():
    # the 3-cycle class of the symmetric group on 3 letters acts on the
    # plane with characteristic polynomial t^2 + t + 1
    group = shared_group(system_from_spec("A2"))
    classes = conjugacy_classes(group)
    cycles = [c for c in classes if not c.has_plus_one]
    assert len(cycles) == 1
    assert cycles[0].char_poly_str == "t^2 + t + 1"
    assert cycles[0].size == 2


@pytest.mark.parametrize("label", ["A0", "A1+A0", "B2+I2(5)+A0", "D4",
                                   "F4", "H3+I2(7)", "I2(12)"])
def test_fixed_dimensions_follow_the_degrees(label):
    # conjugacy_classes raises unless sum_C |C| t^(dim Fix) is
    # t^trivial_dims prod (t + d_i - 1); at t = 0 that counts the elements
    # of the classes that T counts
    system = system_from_spec(label)
    group = shared_group(system)
    classes = conjugacy_classes(group)
    product = 1
    for factor in system.factors:
        for d in factor.degrees:
            product *= d - 1
    free = sum(c.size for c in classes if not c.has_plus_one)
    assert free == (product if system.trivial_dims == 0 else 0)


def test_a_mutated_charpoly_fails_the_degree_certificate(monkeypatch):
    # det(tI - M) replaced by (-1)^r det(-tI - M) for the identity class
    # alone: (t - 1)^r becomes (t + 1)^r, which keeps det = +-1
    group = generate_group(system_from_spec("B3"))
    original = classes_module.charpoly_from_traces
    calls = []

    def mutated(ring, traces):
        poly = original(ring, traces)
        calls.append(1)
        if len(calls) > 1:
            return poly
        r = len(poly) - 1
        return tuple(c if (r - k) % 2 == 0 else ring.neg(c)
                     for k, c in enumerate(poly))
    monkeypatch.setattr(classes_module, "charpoly_from_traces", mutated)
    with pytest.raises(RuntimeError, match="degree product"):
        conjugacy_classes(group)


def test_a_moved_class_member_fails_the_degree_certificate(monkeypatch):
    # one member of the reflection class moved to the identity class: the
    # sizes still cover the group, but not by fixed dimension
    group = generate_group(system_from_spec("A3"))
    orbits = group.class_orbits()
    (identity, one), (reflection, six) = orbits[:2]
    assert (one, six) == (1, 6)
    moved = [(identity, 2), (reflection, 5)] + orbits[2:]
    monkeypatch.setattr(group, "class_orbits", lambda: moved)
    with pytest.raises(RuntimeError, match="degree product"):
        conjugacy_classes(group)


def test_a_charpoly_without_eigenvalue_minus_one_fails_the_equality_clause(
        monkeypatch):
    # (t+1)^2 of the class of -1 in B2 replaced by t^2+1: det, dim Fix, the
    # sizes and the class count stay, so every earlier check passes, but
    # S becomes 3 while T stays 2, and -1 lies in W(B2)
    group = generate_group(system_from_spec("B2"))
    original = classes_module.charpoly_from_traces

    def mutated(ring, traces):
        poly = original(ring, traces)
        if poly == (ring.one, ring.integer(2), ring.one):
            return ring.one, ring.zero, ring.one
        return poly
    monkeypatch.setattr(classes_module, "charpoly_from_traces", mutated)
    classes = conjugacy_classes(group)
    assert [(c.has_plus_one, c.has_minus_one) for c in classes][4] == \
        (False, False)
    assert (sum(not c.has_plus_one for c in classes),
            sum(not c.has_minus_one for c in classes)) == (2, 3)
    with pytest.raises(CertificateError, match="exactly when -identity"):
        count_brute_force(group)


def test_check_all_members_agrees_on_small_groups():
    # the flags read off each class representative hold for every member
    for label in ("A2", "B2", "G2", "I2(5)", "A1+A0"):
        group = shared_group(system_from_spec(label))
        classes = conjugacy_classes(group)
        orbit_of = {i: m for m in _orbits_by_closure(group, group.walk_set())
                    for i in m}
        for cls in classes:
            members = orbit_of[cls.representative.index]
            assert cls.size == len(members)
            for m in members:
                g = GroupElement(group, m)
                assert (has_eigenvalue(g, 1), has_eigenvalue(g, -1)) == \
                    (cls.has_plus_one, cls.has_minus_one), (label, m)


def test_brute_force_equals_closed_form_for_every_vector_model():
    labels = ["A0", "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
              "D4", "D5", "D6", "I2(3)", "I2(4)", "I2(5)", "I2(6)",
              "G2", "F4", "H3", "H4", "E6"]
    for label in labels:
        closed = closed_form_count(parse_factor(label)).pair()
        brute = count(label, strategy="brute").pair()
        assert brute == closed, label


def test_composite_counts_multiply():
    brute = count("B2+A1", strategy="brute").pair()
    left = closed_form_count(parse_factor("B2")).pair()
    right = closed_form_count(parse_factor("A1")).pair()
    assert brute == (left[0] * right[0], left[1] * right[1])


def test_worked_composite_example():
    result = count("B4+D5+I2(7)+A0")
    assert result.pair() == (0, 80)
    assert result.method == "composed"


def test_large_composite_closed_form():
    assert count("E7+A1").pair() == (12, 12)
    assert count("E8", strategy="closed").pair() == (30, 30)


def test_count_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        count("A2", strategy="magic")


def test_has_eigenvalue_on_elements():
    group = shared_group(system_from_spec("B2"))
    assert has_eigenvalue(group.identity, 1)
    assert not has_eigenvalue(group.identity, -1)
    elements = [GroupElement(group, i) for i in range(group.order)]
    flips = [g for g in elements
             if has_eigenvalue(g, -1) and not has_eigenvalue(g, 1)]
    assert len(flips) == 1   # only the central -identity inverts everything
    with pytest.raises(ValueError):
        has_eigenvalue(group.identity, 2)


def test_empty_factor_counts_through_the_group_engine():
    # a fixed line changes the eigenvalue bookkeeping: +1 is always present
    group = shared_group(system_from_spec("A1+A0"))
    classes = conjugacy_classes(group)
    assert all(c.has_plus_one for c in classes)
    assert count_brute_force(group).pair() == (0, 1)


def test_theorem_verdict_on_equal_counts():
    verdict = verify_inequality_theorem("B3+G2")
    assert verdict.ok
    assert verdict.traces == verdict.supertraces
    assert verdict.minus_identity
    assert all(f.present for f in verdict.factor_results)
    assert {f.method for f in verdict.factor_results} == {"engine"}


def test_theorem_verdict_on_strict_inequality():
    verdict = verify_inequality_theorem("A2+B2")
    assert verdict.ok
    assert verdict.traces < verdict.supertraces
    assert not verdict.minus_identity


def test_theorem_verdict_checks_w0_past_the_enumeration_allowance(
        monkeypatch):
    # -I is found from w0 alone, so E7 and E8 (orders past the heavy
    # threshold and the budget) are engine-checked without a group
    def refuse(*args, **kwargs):
        raise AssertionError("a group was enumerated")
    monkeypatch.setattr(group_module, "closure", refuse)
    classes_module._factor_contains_minus_identity.cache_clear()
    verdict = verify_inequality_theorem("E7+I2(9)+E8+A9")
    assert verdict.ok
    assert [(f.label, f.method, f.present) for f in verdict.factor_results] \
        == [("E7", "engine", True), ("I2(9)", "engine", False),
            ("E8", "engine", True), ("A9", "engine", False)]


def test_theorem_verdict_builds_each_factor_once(monkeypatch):
    classes_module._factor_contains_minus_identity.cache_clear()
    built = []
    build = classes_module.build_irreducible
    monkeypatch.setattr(classes_module, "build_irreducible",
                        lambda factor: built.append(factor) or build(factor))
    for spec in ("B3+A2+B3", "A2+E6", "B3"):
        assert verify_inequality_theorem(spec).ok
    assert sorted(f.label for f in built) == ["A2", "B3", "E6"]


def test_theorem_verdict_uses_table_past_the_root_limit():
    # I2(200) has 400 roots, more than enumeration can store
    verdict = verify_inequality_theorem("I2(200)")
    assert verdict.ok
    assert [(f.method, f.present) for f in verdict.factor_results] == \
        [("table", True)]


def test_theorem_verdict_across_a_mixed_sweep():
    specs = ["A0", "A4", "H4", "D6+A0", "I2(11)+B3", "E6+A1",
             "H3+I2(5)", "D5+D4", "B5+I2(13)+A2"]
    for spec in specs:
        verdict = verify_inequality_theorem(spec)
        assert verdict.ok, spec
        assert verdict.s_positive and verdict.t_le_s
        assert verdict.equality_iff_minus_identity


@pytest.mark.parametrize("m", list(range(3, 41)) + [127, 128])
def test_every_dihedral_enumerates_to_the_closed_form(m):
    brute = count(f"I2({m})", strategy="brute").pair()
    assert brute == dihedral_classes(m).counts().pair() == \
        (m // 2, (m + 1) // 2)


@pytest.mark.parametrize("spec", ["H3+I2(7)", "H4+I2(7)", "I2(9)+I2(12)"])
def test_mixed_rings_enumerate_to_the_product_of_closed_forms(spec):
    product = count(spec, strategy="closed").pair()
    assert count(spec, strategy="brute").pair() == product


@pytest.mark.parametrize("spec", ["I2(7)", "I2(8)", "H3+I2(7)"])
def test_printed_coefficients_are_the_charpoly_at_eta(spec):
    # each coefficient, in both printed forms, evaluated at
    # eta = 2cos(pi/N), against det(tI - M) in floating point
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    group = shared_group(system_from_spec(spec))
    ring = group.system.ring
    assert ring.n not in (1, 5)
    eta = 2 * mpmath.cos(mpmath.pi / ring.n)

    def at_eta(e):
        return sum(x * eta ** j for j, x in enumerate(e))

    for cls in conjugacy_classes(group):
        coeffs = []
        for c in cls.char_poly:
            text = eval(ring.text(c).replace("^", "**"), {f"c{ring.n}": eta})
            json_value = at_eta(ring.as_json(c))
            assert abs(text - json_value) < mpmath.mpf(10) ** -25
            coeffs.append(json_value)
        span = group.span_matrix_of(cls.representative.index)
        m = mpmath.matrix([[at_eta(e) for e in row] for row in span.rows])
        n = span.nrows
        # n + 1 points off the unit circle, where tI - M is invertible
        for t in (k + mpmath.mpf("0.25") for k in range(-n, n + 1, 2)):
            det = mpmath.det(t * mpmath.eye(n) - m)
            value = sum(c * t ** k for k, c in enumerate(coeffs))
            assert abs(det - value) < mpmath.mpf(10) ** -20, (spec, t)
