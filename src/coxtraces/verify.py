"""Randomized and exhaustive property suites used by the CLI and tests.

Each suite returns a result object with an ok flag and per-check lines,
so the CLI can print one line per check and exit nonzero on failure.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .classes import count, count_brute_force, verify_inequality_theorem
from .group import DEFAULT_BUDGET, generate_group
from .linalg import CertificateError
from .models import h3_charpoly_table_check, h4_class_census
from .partitions import lemma_identity_check
from .roots import Factor, build_system, parse_factor, system_label

DEFAULT_SEED = 7
DEFAULT_TRIALS = 50
DEFAULT_DEGREE = 500
# the lemma costs O(degree^3): 6-9 s at this degree on a 2 vCPU host
MAX_DEGREE = 1000


class CheckLine(namedtuple("CheckLine", "name ok detail", defaults=("",))):
    __slots__ = ()

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}{tail}"


class SuiteResult:
    def __init__(self, lines=None):
        self.lines = [] if lines is None else lines

    def __repr__(self):
        return f"SuiteResult(lines={self.lines!r})"

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.lines.append(CheckLine(name, ok, detail))

    def add_checked(self, name: str, check):
        """Add the (ok, detail) of check(); a failed certificate inside it,
        such as a count that breaks the ordering theorem, is a FAIL line."""
        try:
            ok, detail = check()
        except CertificateError as exc:
            ok, detail = False, f"error: {exc}"
        self.add(name, ok, detail)


def _factor_pool(max_param: int = 12):
    pool = [Factor("A", n) for n in range(0, max_param + 1)]
    pool += [Factor("B", n) for n in range(2, max_param + 1)]
    pool += [Factor("D", n) for n in range(4, max_param + 1)]
    pool += [Factor("E", n) for n in (6, 7, 8)]
    pool += [Factor("F", 4), Factor("G", 2), Factor("H", 3), Factor("H", 4)]
    pool += [Factor("I", n) for n in range(3, max_param + 1)]
    return pool


def random_composite_factors(rng: random.Random, max_factors: int = 5,
                             max_param: int = 12):
    pool = _factor_pool(max_param)
    return tuple(rng.choice(pool) for _ in range(rng.randint(1, max_factors)))


def inequality_suite(trials: int = DEFAULT_TRIALS,
                     seed: int = DEFAULT_SEED) -> SuiteResult:
    """The ordering theorem on seeded random composite systems; every
    factor within the root and ring limits gets roots and a w0."""
    rng = random.Random(seed)
    result = SuiteResult()
    for _ in range(trials):
        factors = random_composite_factors(rng)
        result.add_checked(f"ordering theorem on {system_label(factors)}",
                           lambda: _ordering_check(factors))
    return result


def _ordering_check(factors) -> tuple:
    verdict = verify_inequality_theorem(factors)
    engine = sum(1 for f in verdict.factor_results if f.method == "engine")
    return verdict.ok, (f"T={verdict.traces} S={verdict.supertraces} "
                        f"-I={'yes' if verdict.minus_identity else 'no'} "
                        f"engine-checked {engine}/{len(verdict.factor_results)}")


_SMALL_POOL = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "D5",
               "G2", "F4", "H3", "H4", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "A0")


def multiplicativity_suite(pairs: int = 25, seed: int = DEFAULT_SEED,
                           order_cap: int = 100_000,
                           budget: int = DEFAULT_BUDGET) -> SuiteResult:
    """Brute-force counts on direct sums against products of factor counts."""
    rng = random.Random(seed)
    result = SuiteResult()
    done = 0
    while done < pairs:
        first = parse_factor(rng.choice(_SMALL_POOL))
        second = parse_factor(rng.choice(_SMALL_POOL))
        if first.order * second.order > order_cap:
            continue
        done += 1
        combined = build_system((first, second))

        def check():
            brute = count_brute_force(generate_group(combined, budget=budget))
            product = count([first]) * count([second])
            return (brute.pair() == product.pair(),
                    f"brute {brute.pair()} vs product {product.pair()}")
        result.add_checked(f"multiplicativity on {combined.label}", check)
    return result


def lemma_suite(degree: int = DEFAULT_DEGREE) -> SuiteResult:
    result = SuiteResult()
    verdict = lemma_identity_check(degree)
    detail = "; ".join(verdict.problems) if verdict.problems else f"degree {degree}"
    result.add("partition parity identity", verdict.ok, detail)
    return result


def appendix_suite(budget: int = DEFAULT_BUDGET) -> SuiteResult:
    """The hand-built model fixtures, and the engine's I2(n) counts against
    floor(n/2) and floor((n+1)/2)."""
    result = SuiteResult()

    h3 = h3_charpoly_table_check()
    result.add("rank-3 generator fixture", h3.ok, "; ".join(h3.problems))

    h4 = h4_class_census()
    result.add("rank-4 quaternion census", h4.ok, "; ".join(h4.problems))

    # each I2(n) is enumerated once, and read again by the lines below
    closed = {n: (n // 2, (n + 1) // 2) for n in range(3, 31)}
    brute = {n: count(f"I2({n})", strategy="brute", budget=budget).pair()
             for n in closed}
    result.add("dihedral classes n=3..30", brute == closed)
    for n in (3, 4, 5, 6):
        result.add(f"dihedral n={n} vs matrix model", brute[n] == closed[n],
                   f"matrix {brute[n]}")

    g2 = count("G2", strategy="brute", budget=budget)
    result.add("hexagonal dihedral is G2", g2.pair() == brute[6] == (3, 3))
    return result
