"""Acceptance gate: every shipped claim, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; each criterion is its own test so a failure pinpoints the claim
that broke.  The E7 enumeration is the one long-running criterion and
is marked heavy (`pytest -m heavy`).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from coxtraces.classes import conjugacy_classes, count, count_brute_force
from coxtraces.group import (BudgetExceededError, contains_minus_identity,
                             generate_group, shared_group)
from coxtraces.models import h3_charpoly_table_check, h4_class_census
from coxtraces.partitions import closed_form_count, lemma_identity_check
from coxtraces.roots import parse_factor, system_from_spec
from coxtraces.verify import (inequality_suite, multiplicativity_suite,
                              random_composite_factors)
from dihedral import dihedral_classes
from field import ONE, ZERO, FieldElement, gauss_det
from quaternions import (lr_fixed_point_criterion, star_action_matrix,
                         unit_icosians)

TABLE_VALUES = {
    "A1": (1, 1), "G2": (3, 3), "F4": (9, 9), "H3": (4, 4), "H4": (20, 20),
    "E6": (5, 9), "E7": (12, 12), "E8": (30, 30), "A0": (0, 1),
}


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_table_reproduction():
    with criterion(1, "table reproduction"):
        for label, expected in TABLE_VALUES.items():
            assert count(label).pair() == expected, label
        # enumeration confirms each value that fits in the default budget
        for label in ("A0", "A1", "G2", "F4", "H3", "H4", "E6"):
            assert count(label, strategy="brute").pair() == \
                TABLE_VALUES[label], label


@pytest.mark.heavy
def test_criterion_1_heavy_e7_enumeration():
    with criterion("1-heavy", "E7 enumerated"):
        group = generate_group(system_from_spec("E7"), heavy=True)
        assert count_brute_force(group).pair() == (12, 12)
        assert contains_minus_identity(group.system)


def test_criterion_2_closed_equals_brute():
    with criterion(2, "closed form matches enumeration"):
        labels = (["A1", "A2", "A3", "A4", "A5"]
                  + ["B2", "B3", "B4", "B5"]
                  + ["D4", "D5", "D6"]
                  + ["I2(3)", "I2(4)", "I2(5)", "I2(6)"]
                  + ["G2", "F4", "H3", "H4", "E6"])
        for label in labels:
            closed = closed_form_count(parse_factor(label)).pair()
            brute = count(label, strategy="brute").pair()
            assert closed == brute, label


def test_criterion_3_partition_parity_lemma():
    with criterion(3, "partition parity lemma"):
        verdict = lemma_identity_check(degree=500, enumerate_to=40)
        assert verdict.ok, verdict.problems


def test_criterion_4_ordering_theorem_random_suite():
    with criterion(4, "ordering theorem on 50 seeded systems"):
        result = inequality_suite(trials=50, seed=7)
        failures = [line.render() for line in result.lines if not line.ok]
        assert not failures, failures
        assert len(result.lines) == 50
        golden = Path(__file__).parent / "golden" / "inequality_suite_50_7.txt"
        assert [line.render() for line in result.lines] == \
            golden.read_text().splitlines()
        # the draw pool must actually exercise multi-factor systems
        rng = random.Random(7)
        sizes = {len(random_composite_factors(rng)) for _ in range(50)}
        assert len(sizes) > 1


def test_criterion_5_multiplicativity():
    with criterion(5, "product systems multiply counts"):
        result = multiplicativity_suite(pairs=25, seed=7, order_cap=100_000)
        failures = [line.render() for line in result.lines if not line.ok]
        assert not failures, failures
        assert len(result.lines) == 25


def test_criterion_6_rank3_generator_fixture():
    with criterion(6, "rank-3 published fixture"):
        started = time.perf_counter()
        verdict = h3_charpoly_table_check()
        assert verdict.ok, verdict.problems
        assert verdict.class_count == 10
        assert verdict.no_plus_one_classes == 4
        assert time.perf_counter() - started < 10.0


def test_criterion_7_rank4_quaternion_model():
    with criterion(7, "rank-4 quaternion model"):
        units = unit_icosians()
        rng = random.Random(7)
        four = FieldElement.from_int(4)
        for _ in range(100):
            l = units[rng.randrange(120)]
            r = units[rng.randrange(120)]
            det, keeps_plus = lr_fixed_point_criterion(l, r)
            diff = l.q0 - r.q0
            assert det == four * diff * diff
            assert keeps_plus == det.is_zero
        for p in units[:20]:
            m = star_action_matrix(p)
            # eigenvalue +1
            assert gauss_det([[e - (ONE if i == j else ZERO)
                               for j, e in enumerate(row)]
                              for i, row in enumerate(m)]).is_zero
        census = h4_class_census()
        assert census.ok, census.problems
        assert census.class_count == 34
        assert (census.traces, census.supertraces) == (20, 20)


def test_criterion_8_dihedral_family():
    with criterion(8, "dihedral class counts"):
        for n in range(3, 31):
            assert dihedral_classes(n).counts().pair() == \
                (n // 2, (n + 1) // 2), n
        for n in (3, 4, 5, 6):
            matrix_counts = count(f"I2({n})", strategy="brute").pair()
            assert matrix_counts == dihedral_classes(n).counts().pair(), n
        hexagon = count("I2(6)", strategy="brute")
        crystal = count("G2", strategy="brute")
        assert hexagon.pair() == crystal.pair() == (3, 3)
        g2 = shared_group(system_from_spec("G2"))
        i26 = shared_group(system_from_spec("I2(6)"))
        assert len(conjugacy_classes(g2)) == len(conjugacy_classes(i26)) == 6


def test_criterion_9_e8_stays_closed_form():
    with criterion(9, "E8 enumeration exceeds desk scale"):
        system = system_from_spec("E8")
        with pytest.raises(BudgetExceededError):
            generate_group(system, heavy=True, budget=10 ** 10)
        result = count("E8")
        assert result.pair() == (30, 30)
        assert result.method == "closed_form"
