"""Quaternion models and the published generator fixtures."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxtraces import models
from coxtraces.cli import main
from coxtraces.group import generate_group
from coxtraces.linalg import Matrix
from coxtraces.models import (H3Generators, build_h3_generators,
                              h3_charpoly_table_check, h4_class_census)
from coxtraces.roots import system_from_spec

from ambient_oracle import ambient_roots, reflection_matrix
from field import (GOLDEN, ONE, FieldElement, from_golden, gauss_det,
                   identity, mat_mul, poly_mul, transpose)
from quaternions import (Quaternion, lr_action_matrix, lr_fixed_point_criterion,
                         star_action_matrix, unit_icosians)


def _q(q0, q1, q2, q3):
    return Quaternion(FieldElement.from_int(q0), FieldElement.from_int(q1),
                      FieldElement.from_int(q2), FieldElement.from_int(q3))


ONE_Q = _q(1, 0, 0, 0)
I_Q = _q(0, 1, 0, 0)
J_Q = _q(0, 0, 1, 0)
K_Q = _q(0, 0, 0, 1)

icosians = st.sampled_from(unit_icosians())


def test_hamilton_relations():
    assert I_Q * J_Q == K_Q
    assert J_Q * K_Q == I_Q
    assert K_Q * I_Q == J_Q
    assert I_Q * I_Q == -ONE_Q
    assert J_Q * I_Q == -K_Q


def test_icosian_set():
    units = unit_icosians()
    assert len(units) == 120
    assert all(u.is_unit for u in units)
    assert ONE_Q in units
    assert len({u.coords for u in units}) == 120
    # as vectors of R^4 they are the oracle's H4 roots, which the tests of
    # coxtraces.roots check against the axioms and the H4 Cartan matrix


@given(icosians, icosians)
def test_icosians_close_under_multiplication(x, y):
    units = unit_icosians()
    assert x * y in units
    assert x.conjugate() in units


@given(icosians, icosians, icosians)
def test_quaternion_multiplication_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(icosians, icosians)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conjugate() == ONE_Q


def test_rotation_action_frozen_matrix():
    # conjugation by i fixes the (1, i) plane and flips the (j, k) plane
    m = lr_action_matrix(I_Q, I_Q)
    diag = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    assert m == tuple(tuple(FieldElement.from_int(x) for x in row)
                      for row in diag)
    assert gauss_det(m) == ONE


def test_reversing_action_frozen_matrix():
    # plain conjugation x -> x* fixes the real axis, negates the imaginaries
    m = star_action_matrix(ONE_Q)
    diag = [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    assert m == tuple(tuple(FieldElement.from_int(x) for x in row)
                      for row in diag)
    assert gauss_det(m) == -ONE


def test_actions_demand_unit_quaternions():
    with pytest.raises(ValueError):
        lr_action_matrix(_q(2, 0, 0, 0), ONE_Q)
    with pytest.raises(ValueError):
        star_action_matrix(_q(0, 0, 0, 0))


@given(icosians, icosians)
def test_rotation_matrices_are_special_orthogonal(l, r):
    m = lr_action_matrix(l, r)
    assert gauss_det(m) == ONE
    assert mat_mul(transpose(m), m) == identity(4)


def test_fixed_point_determinant_identity():
    # det(x -> lx - xr) = 4 (l0 - r0)^2 exactly, on seeded unit pairs
    units = unit_icosians()
    rng = random.Random(7)
    four = FieldElement.from_int(4)
    for _ in range(100):
        l = units[rng.randrange(120)]
        r = units[rng.randrange(120)]
        det, keeps_plus = lr_fixed_point_criterion(l, r)
        diff = l.q0 - r.q0
        assert det == four * diff * diff
        assert keeps_plus == (det.is_zero)


def test_h3_generator_fixture():
    verdict = h3_charpoly_table_check()
    assert verdict.ok, verdict.problems
    assert verdict.class_count == 10
    assert verdict.no_plus_one_classes == 4


def _published_forms():
    """The published det(M - tI), as products of FieldElement polynomials."""
    k, one_minus_t = GOLDEN, (ONE, -ONE)
    return {
        "identity": poly_mul(poly_mul(one_minus_t, one_minus_t), one_minus_t),
        "ac": poly_mul(one_minus_t, poly_mul((ONE, ONE), (ONE, ONE))),
        "bc": poly_mul(one_minus_t, (ONE, ONE, ONE)),
        "ab": poly_mul(one_minus_t, (ONE, ONE - k, ONE)),
        "abab": poly_mul(one_minus_t, (ONE, k, ONE)),
    }


def test_literal_h3_charpolys_are_the_published_product_forms():
    literal = {name: tuple(map(from_golden, coeffs))
               for name, coeffs in models._PUBLISHED_H3_CHARPOLYS.items()}
    assert literal == _published_forms()


def test_a_wrong_h3_charpoly_fails_the_fixture(monkeypatch):
    wrong = dict(models._PUBLISHED_H3_CHARPOLYS)
    wrong["ab"] = ((1, 0), (0, 1), (0, -1), (-1, 0))   # k for 1 - k
    monkeypatch.setattr(models, "_PUBLISHED_H3_CHARPOLYS", wrong)
    verdict = h3_charpoly_table_check()
    assert verdict.problems == ["characteristic polynomial of ab differs"]


def test_a_wrong_published_generator_fails_verify_appendices(monkeypatch,
                                                             capsys):
    # one entry of b off by phi/2: the fixture must fail, and the CLI exit 1
    gens = build_h3_generators()
    rows = [list(row) for row in gens.b.rows]
    rows[0][1] = (0, 1)
    wrong = H3Generators(gens.a, Matrix(rows, gens.b.ring), gens.c)
    monkeypatch.setattr(models, "build_h3_generators", lambda: wrong)
    assert main(["verify", "appendices"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL  rank-3 generator fixture  (")
    assert all(line.startswith("PASS") for line in lines[1:])


def test_h3_middle_generator_is_a_root_reflection():
    gens = build_h3_generators()
    half = FieldElement(1, 0) / FieldElement(2, 0)
    root = (half, -GOLDEN * half, (ONE - GOLDEN) * half)
    assert tuple(tuple(map(from_golden, row)) for row in gens.b.rows) == \
        reflection_matrix(root)
    assert root in set(ambient_roots("H3"))
    golden_identity = Matrix.identity(3, gens.a.ring)
    assert gens.a * gens.a == golden_identity
    assert gens.b * gens.b == golden_identity
    assert gens.c * gens.c == golden_identity


def test_h4_census():
    verdict = h4_class_census()
    assert verdict.ok, verdict.problems
    assert verdict.class_count == 34
    assert verdict.traces == 20 and verdict.supertraces == 20
    assert verdict.rotation_classes == 25
    assert verdict.reversing_classes == 9


def test_h4_census_agrees_with_the_group_engine():
    group = generate_group(system_from_spec("H4"))
    from coxtraces.classes import conjugacy_classes
    classes = conjugacy_classes(group)
    census = h4_class_census()
    assert len(classes) == census.class_count
    assert sum(1 for c in classes if c.det == -1) == census.reversing_classes
    assert all(c.has_plus_one for c in classes if c.det == -1)
