"""Root system construction and parsing, against the ambient oracle."""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from ambient_oracle import ambient_roots, axiom_problems, cartan, simple_roots
from coxtraces.group import _conjugate, _walker, generate_group
from coxtraces.linalg import Matrix, coordinate_ring
from coxtraces.roots import (Factor, SpecParseError, build_irreducible,
                             build_system, cartan_matrix, direct_sum,
                             parse_factor, parse_system_spec, ring_index,
                             system_from_spec, system_order)
from field import GOLDEN, HALF, ZERO, dot, from_golden, vadd, vneg, vscale

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A5": 30,
    "B2": 8, "B3": 18, "B4": 32,
    "D4": 24, "D5": 40,
    "E6": 72, "E7": 126, "E8": 240,
    "F4": 48, "G2": 12, "H3": 30, "H4": 120,
    "I2(3)": 6, "I2(4)": 8, "I2(5)": 10, "I2(6)": 12, "I2(10)": 20,
    "I2(7)": 14, "I2(8)": 16, "I2(12)": 24, "I2(127)": 254, "I2(128)": 256,
}

RANKS = {
    "A1": 1, "A2": 2, "A5": 5, "B3": 3, "D4": 4, "E6": 6, "E7": 7,
    "E8": 8, "F4": 4, "G2": 2, "H3": 3, "H4": 4,
    "I2(3)": 2, "I2(4)": 2, "I2(5)": 2, "I2(6)": 2, "I2(10)": 2,
}

# every system with a vector model, ranks up to 8 for A, B and D
ORACLE_LABELS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"D{n}" for n in range(2, 9)]
                 + ["E6", "E7", "E8", "F4", "G2", "H3", "H4",
                    "I2(3)", "I2(4)", "I2(5)", "I2(6)"])


def test_root_counts():
    for label, expected in ROOT_COUNTS.items():
        system = system_from_spec(label)
        assert len(system.roots) == expected, label
        assert parse_factor(label).root_count == expected, label


def test_ranks():
    for label, expected in RANKS.items():
        system = system_from_spec(label)
        assert system.rank == expected, label
        assert len(system.simple_root_indices) == expected, label


def test_simple_roots_are_the_unit_vectors():
    for spec in ("B3+H3", "H3+I2(7)"):
        system = system_from_spec(spec)
        ring = system.ring
        for k, i in enumerate(system.simple_root_indices):
            assert system.roots[i] == tuple(ring.one if j == k else ring.zero
                                            for j in range(system.rank)), spec


def _field(system, vector):
    """A vector of the library's ring (N = 1 or 5) as FieldElements."""
    assert system.ring.n in (1, 5)
    return tuple(map(from_golden, vector))


@lru_cache(maxsize=None)
def _oracle(label):
    """The oracle's simple roots for one system, found by its own search."""
    return tuple(simple_roots(ambient_roots(label)))


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_cartan_matrix_matches_the_ambient_oracle(label):
    # entry for entry and in the same node order, so that the generators,
    # element ids and class order are those of the ambient model
    system = system_from_spec(label)
    assert cartan(_oracle(label)) == [list(_field(system, row))
                                      for row in system.cartan]


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_roots_match_the_ambient_oracle(label):
    # sum_i c_i alpha_i over the library's roots c gives the oracle's roots
    simple, system = _oracle(label), system_from_spec(label)
    image = set()
    for coords in system.roots:
        vector = (ZERO,) * len(simple[0])
        for c, alpha in zip(_field(system, coords), simple):
            vector = vadd(vector, vscale(c, alpha))
        image.add(vector)
    assert image == set(ambient_roots(label))


def _symmetrizer(c, d0):
    """d with d_i a_ij = d_j a_ji, spread from d_0 along the diagram."""
    d = {0: d0}
    while len(d) < len(c):
        i, j = next((i, j) for i in d for j in range(len(c))
                    if j not in d and not c[i][j].is_zero)
        d[j] = d[i] * c[i][j] / c[j][i]
    return [d[i] for i in range(len(c))]


@pytest.mark.parametrize("label", [x for x in ORACLE_LABELS if x != "D2"])
def test_gram_matrix_is_the_symmetrized_cartan_matrix(label):
    # D2 = A1+A1 is left out: its diagram is not connected
    system = system_from_spec(label)
    simple = _oracle(label)
    c = [_field(system, row) for row in system.cartan]
    d = _symmetrizer(c, dot(simple[0], simple[0]) / 2)
    assert [[d[i] * a for a in row] for i, row in enumerate(c)] == \
        [[dot(a, b) for b in simple] for a in simple]


def test_validation_everywhere():
    # E7 and E8 get their own tests; the oracle has no model of I2(m), m > 6
    for label in ROOT_COUNTS:
        if label in ("E7", "E8") or label not in ORACLE_LABELS:
            continue
        problems = axiom_problems(ambient_roots(label))
        assert not problems, f"{label}: {problems}"


def test_validation_e7():
    assert not axiom_problems(ambient_roots("E7"))


def test_validation_e8():
    assert not axiom_problems(ambient_roots("E8"))


@pytest.mark.parametrize("label", ["E8", "H4", "B5"])
def test_a_wrong_root_fails_the_axioms(label):
    # move one +-root pair by half a unit vector: negatives, lines and
    # duplicates still pass, so the reflection axiom must catch it
    roots = ambient_roots(label)
    wrong = vadd(roots[0], (HALF,) + (ZERO,) * (len(roots[0]) - 1))
    assert wrong not in roots
    mutated = roots[1:] + [wrong]
    mutated[mutated.index(vneg(roots[0]))] = vneg(wrong)
    problems = axiom_problems(mutated)
    assert problems and all(p.startswith("reflection in") for p in problems)


def test_cartan_build_refuses_a_wrong_root_count(monkeypatch):
    # a Cartan matrix whose closure is not |R| of its factor
    monkeypatch.setattr(Factor, "root_count", property(lambda self: 7))
    with pytest.raises(RuntimeError, match="expected 7"):
        build_irreducible(Factor("A", 2))


def test_parse_factor_families():
    assert parse_factor("A0").label == "A0"
    assert parse_factor("B5") == Factor("B", 5)
    assert parse_factor("C5") == Factor("B", 5)   # same group, one name
    assert parse_factor("I2(7)") == Factor("I", 7)
    assert parse_factor("E8").label == "E8"
    assert parse_factor("D20000") == Factor("D", 20000)   # the rank bound


def test_parse_rejects_bad_tokens():
    for bad in ("Z9", "A-1", "B1", "D1", "E5", "E9", "F5", "G3", "H5",
                "I2(2)", "I2(x)", "A", "", "B2 D3", "A20001", "C20001"):
        with pytest.raises(SpecParseError):
            parse_factor(bad)


def test_spec_digit_bound():
    # two factors at the rank bound: |W| has 166,716 digits
    assert len(parse_system_spec("B20000+B20000")) == 2
    for spec in ("B20000+B20000+A3000", "+".join(["B20000"] * 5)):
        with pytest.raises(SpecParseError, match="digits"):
            parse_system_spec(spec)
    # the parser skips the exact sum below the bound n log10(max(2n, 30))
    factors = ([Factor(f, n) for f in "ABD" for n in range(f != "A", 300)]
               + [Factor("I", m) for m in range(3, 300)]
               + [parse_factor(t) for t in "E6 E7 E8 F4 G2 H3 H4".split()])
    for f in factors:
        assert len(f.degrees) <= (2 if f.family == "I" else f.n)
        assert all(d <= max(2 * f.n, 30) for d in f.degrees)


def test_spec_digit_bound_skips_the_degrees_below_it(monkeypatch):
    # large I2(m) have two degrees, not m: specs such as the closed-form
    # benchmark's (ranks up to 168, I2(m) up to 10**6) never read them
    def unread(self):
        raise AssertionError(f"degrees of {self.label} read")
    monkeypatch.setattr(Factor, "degrees", property(unread))
    for spec in ("A168+I2(1000000)+I2(999999)", "B96+I2(123457)+H4",
                 "A64+B64+D64", "B10000+D10000+I2(1000000)",
                 "+".join(["I2(1000000)"] * 1000)):
        parse_system_spec(spec)


def test_parse_system_spec():
    factors = parse_system_spec("B4 + D5+I2(7) + A0")
    assert [f.label for f in factors] == ["B4", "D5", "I2(7)", "A0"]
    with pytest.raises(SpecParseError):
        parse_system_spec("B4 ++ A1")
    with pytest.raises(SpecParseError):
        parse_system_spec("")


def test_factor_orders():
    assert Factor("A", 4).order == 120
    assert Factor("B", 4).order == 384
    assert Factor("D", 4).order == 192
    assert Factor("E", 8).order == 696729600
    assert Factor("H", 4).order == 14400
    assert Factor("I", 7).order == 14
    assert Factor("A", 0).order == 1


def test_minus_identity_classification():
    expects = {
        "A0": False, "A1": True, "A2": False, "A3": False,
        "B2": True, "B7": True, "D4": True, "D5": False, "D6": True,
        "E6": False, "E7": True, "E8": True, "F4": True, "G2": True,
        "H3": True, "H4": True, "I2(5)": False, "I2(6)": True,
    }
    for label, expected in expects.items():
        assert parse_factor(label).contains_minus_identity == expected, label


def test_noncanonical_low_rank_d():
    # D2 and D3 are accepted as the aliases A1+A1 and A3, by their degrees
    assert sorted(parse_factor("D2").degrees) == [2, 2]
    assert sorted(parse_factor("D3").degrees) == list(parse_factor("A3").degrees)
    assert build_irreducible(Factor("D", 2)).cartan == \
        system_from_spec("A1+A1").cartan


def _value(ring, e) -> float:
    """A ring element as a float, with eta = 2cos(pi/N)."""
    eta = 2 * math.cos(math.pi / ring.n)
    return sum(x * eta ** j for j, x in enumerate(e))


def test_matrix_model_availability():
    # every factor has a Cartan matrix, with a_01 a_10 = 4cos^2(pi/m) for
    # I2(m)
    for m in (3, 4, 5, 6, 7, 8, 9, 10, 12, 30, 127, 128, 1000):
        factor = Factor("I", m)
        ring = coordinate_ring(ring_index([factor]))
        c = cartan_matrix(factor, ring)
        assert _value(ring, ring.mul(c[0][1], c[1][0])) == \
            pytest.approx(4 * math.cos(math.pi / m) ** 2), m
    assert len(cartan_matrix(Factor("H", 4))) == 4


def test_dihedral_models_are_planar():
    # in simple-root coordinates every dihedral lives in the plane, with
    # a_01 a_10 = 4 cos^2(pi/m); the five pairs of earlier releases keep
    # their orientation
    products = {3: 1, 4: 2, 5: GOLDEN * GOLDEN, 6: 3, 10: 2 + GOLDEN}
    pairs = {3: (-1, -1), 4: (-2, -1), 5: (-GOLDEN, -GOLDEN), 6: (-3, -1),
             10: (-1, -2 - GOLDEN)}
    for m, product in products.items():
        system = build_irreducible(Factor("I", m))
        assert system.ring.n in (1, 5)
        assert system.rank == 2
        assert {len(r) for r in system.roots} == {2}
        a01, a10 = system.cartan[0][1], system.cartan[1][0]
        assert from_golden(system.ring.mul(a01, a10)) == product, m
        assert (from_golden(a01), from_golden(a10)) == pairs[m], m


def test_odd_dihedral_has_a_symmetric_cartan_matrix():
    # a_01 = a_10 = -2cos(pi/m): with (-1, -4cos^2(pi/m)) instead, the
    # orbit of the simple roots of I2(5) has 20 vectors of two lengths
    for m in (7, 9, 15, 105, 127):
        system = build_irreducible(Factor("I", m))
        assert system.cartan[0][1] == system.cartan[1][0], m
        assert system.ring.n == m
        assert len(system.roots) == 2 * m
        assert system_order(system.factors) == 2 * m


def test_empty_system_contributes_a_fixed_line():
    system = build_irreducible(Factor("A", 0))
    assert system.rank == 0
    assert system.trivial_dims == 1
    assert system.roots == ()


def test_direct_sum_bookkeeping():
    left = system_from_spec("B2")
    right = system_from_spec("A2")
    total = direct_sum(left, right)
    assert total.rank == left.rank + right.rank
    assert len(total.roots) == len(left.roots) + len(right.roots)
    assert system_order(total.factors) == 8 * 6
    assert generate_group(total).order == 8 * 6


def test_direct_sum_needs_one_ring():
    with pytest.raises(ValueError, match="different coordinate rings"):
        direct_sum(system_from_spec("B2"), system_from_spec("H3"))
    ring = system_from_spec("H3").ring
    total = direct_sum(build_irreducible(Factor("B", 2), ring),
                       system_from_spec("H3"))
    assert total.ring.n == 5 and total.label == "B2+H3"


def test_composite_with_empty_and_dihedral_parts():
    system = system_from_spec("B2+I2(9)+A0")
    assert system.trivial_dims == 1
    assert system_order(system.factors) == 8 * 18 * 1
    assert system.label == "B2+I2(9)+A0"
    assert system.ring.n == 9
    assert len(system.roots) == 8 + 18


def test_build_system_roundtrip():
    factors = parse_system_spec("A1+G2")
    system = build_system(factors)
    assert system.label == "A1+G2"
    assert len(system.roots) == 2 + 12


def test_direct_sum_validates():
    # the roots of a sum are those of its factors, each built in the ring
    # of the sum and padded with zeros
    for spec in ("A3+I2(5)", "B3+A1", "D4+B2", "G2+A2+A1", "I2(7)+H3"):
        system, at = system_from_spec(spec), 0
        zero = system.ring.zero
        for factor in system.factors:
            block = build_irreducible(factor, system.ring)
            pad = (zero,) * at, (zero,) * (system.rank - at - block.rank)
            assert {pad[0] + r + pad[1] for r in block.roots} <= \
                set(system.roots), spec
            at += block.rank
        assert sum(len(system_from_spec(f).roots)
                   for f in spec.split("+")) == len(system.roots)


def _neg(system, root):
    return tuple(map(system.ring.neg, root))


def test_reflection_fixes_orthogonal_and_negates_root():
    for spec, rank in (("B3", 3), ("I2(9)+A1", 3)):
        system = system_from_spec(spec)
        group, ring = generate_group(system), system.ring
        for k, (i, perm) in enumerate(zip(system.simple_root_indices,
                                          system.simple_reflections)):
            assert system.roots[perm[i]] == _neg(system, system.roots[i])
            # beta is orthogonal to alpha_k exactly when sum_j a_kj beta_j = 0
            for b, beta in enumerate(system.roots):
                if ring.dot(system.cartan[k], beta) == ring.zero:
                    assert perm[b] == b
            m = group.span_matrix_of(group.id_of(perm))
            assert m * m == Matrix.identity(rank, ring)
            assert m.det() == ring.integer(-1)


def test_reflect_permutes_the_root_set():
    for label in ("A2", "B3", "G2", "H3", "I2(5)", "I2(10)", "D4+A1",
                  "I2(7)", "I2(8)+H3"):
        system = system_from_spec(label)
        identity = bytes(range(len(system.roots)))
        for perm in system.simple_reflections:   # involutions, so bijections
            assert perm.translate(perm.ljust(256, b"\0")) == identity, label


def test_root_permutation_is_a_permutation():
    system = system_from_spec("H3")
    n = len(system.roots)
    for perm in system.simple_reflections:
        assert sorted(perm) == list(range(n))


def test_roots_come_in_opposite_pairs():
    for spec in ("F4", "I2(12)"):
        system = system_from_spec(spec)
        index = system.root_index
        for root in system.roots:
            assert index[_neg(system, root)] != index[root]


def test_highest_h3_root_reflection_has_golden_entries():
    # the highest H3 root has golden coordinates in the simple basis; the
    # reflection in it, w s_i w^-1 for w sending alpha_i to it, has a
    # matrix that is rational only in the golden ratio; ring elements of
    # Z[phi] are pairs x + y*phi
    system = system_from_spec("H3")
    group, ring = generate_group(system), system.ring
    top = max(range(len(system.roots)),
              key=lambda r: sum(_field(system, system.roots[r])))
    assert any(y for _, y in system.roots[top])
    w = next(w for w in range(group.order)
             if group.perm(w)[system.simple_root_indices[0]] == top)
    s0 = system.simple_reflections[0]
    m = group.span_matrix_of(group.id_of(_conjugate(s0,
                                                    _walker(group.perm(w)))))
    assert m * m == Matrix.identity(3, ring)
    assert m.det() == ring.integer(-1)
    assert any(y for row in m.rows for _, y in row)


@pytest.mark.parametrize("spec", ["A5", "B4", "D5", "E8", "F4", "G2", "H3",
                                  "H4", "I2(7)", "I2(12)", "H3+I2(7)+A0"])
def test_positive_mask_is_the_sign_of_the_roots(spec):
    # the mask reads no sign; numerically, a positive root has coordinates
    # >= 0 in the simple basis and a negative one <= 0
    system = system_from_spec(spec)
    eta = 2 * math.cos(math.pi / system.ring.n)
    for root, positive in zip(system.roots, system.positive):
        total = sum(c * eta ** j for x in root for j, c in enumerate(x))
        assert positive == (total > 0), (spec, root)
    assert system.positive.count(1) == len(system.roots) // 2
