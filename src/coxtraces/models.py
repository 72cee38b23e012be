"""Hand-built models for the two icosahedral groups.

The rank-3 group gets its three published generator matrices over the
sqrt(5) field, checked against the defining relations and the expected
characteristic polynomials.  The rank-4 group is realized on the unit
quaternions: rotations act as x -> l x r* with unit quaternions l, r,
orientation-reversing elements as x -> p x*.  A rotation class misses
eigenvalue +1 exactly when the real parts of l and r differ, which is
what the determinant identity det(x -> lx - xr) = 4 (l0 - r0)^2 encodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .classes import conjugacy_classes
from .field import GOLDEN, HALF, ONE, ZERO, FieldElement
from .group import shared_group
from .linalg import Matrix, poly_mul, poly_neg
from .roots import build_irreducible, closure, orbits, parse_factor


# -- exact quaternions -------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    """Quaternion q0 + q1 i + q2 j + q3 k over the sqrt(5) field."""

    q0: FieldElement
    q1: FieldElement
    q2: FieldElement
    q3: FieldElement

    @classmethod
    def from_coords(cls, coords) -> "Quaternion":
        return cls(*(c if isinstance(c, FieldElement) else FieldElement(c)
                     for c in coords))

    @property
    def coords(self):
        return (self.q0, self.q1, self.q2, self.q3)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(*(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Quaternion(*(-c for c in self.coords))

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def norm(self) -> FieldElement:
        total = ZERO
        for c in self.coords:
            total = total + c * c
        return total

    @property
    def is_unit(self) -> bool:
        return self.norm() == ONE

    def __repr__(self):
        return f"Quaternion({', '.join(str(c) for c in self.coords)})"


_Q_BASIS = (Quaternion.from_coords((1, 0, 0, 0)),
            Quaternion.from_coords((0, 1, 0, 0)),
            Quaternion.from_coords((0, 0, 1, 0)),
            Quaternion.from_coords((0, 0, 0, 1)))


@lru_cache(maxsize=None)
def unit_icosians() -> tuple:
    """The 120 unit icosians, sorted: the group generated by (1+i+j+k)/2 and
    (phi + i + j/phi)/2, i.e. +-1, +-i, +-j, +-k, (+-1 +- i +- j +- k)/2 and
    the even permutations of (+-phi, +-1, +-1/phi, 0)/2.  As vectors of R^4
    they are the roots of the rank-4 icosahedral group."""
    gens = [Quaternion(HALF, HALF, HALF, HALF),
            Quaternion(GOLDEN * HALF, HALF, (GOLDEN - 1) * HALF, ZERO)]
    units, _ = closure([_Q_BASIS[0]], gens, lambda q, g: q * g)
    return tuple(sorted(units, key=lambda q: q.coords))


def _require_unit(q: Quaternion, name: str):
    if not q.is_unit:
        raise ValueError(f"{name} must be a unit quaternion, |{name}|^2 = {q.norm()}")


def lr_action_matrix(l: Quaternion, r: Quaternion) -> Matrix:
    """4x4 matrix of the rotation x -> l x r* in the basis 1, i, j, k."""
    _require_unit(l, "l")
    _require_unit(r, "r")
    rc = r.conjugate()
    return Matrix.from_columns([(l * e * rc).coords for e in _Q_BASIS])


def star_action_matrix(p: Quaternion) -> Matrix:
    """4x4 matrix of the orientation-reversing action x -> p x*."""
    _require_unit(p, "p")
    return Matrix.from_columns([(p * e.conjugate()).coords for e in _Q_BASIS])


def lr_fixed_point_criterion(l: Quaternion, r: Quaternion):
    """(det of x -> l x - x r, whether the rotation keeps eigenvalue +1).

    The rotation x -> l x r* fixes a nonzero vector exactly when l and r
    share their real part, i.e. when this determinant vanishes.
    """
    _require_unit(l, "l")
    _require_unit(r, "r")
    commutator = Matrix.from_columns([(l * e - e * r).coords for e in _Q_BASIS])
    return commutator.det(), l.q0 == r.q0


# -- the rank-3 generator fixture ----------------------------------------------


@dataclass(frozen=True)
class H3Generators:
    a: Matrix
    b: Matrix
    c: Matrix


def build_h3_generators() -> H3Generators:
    """The three published reflection generators, with k the golden ratio.

    a and c are the coordinate reflections fixing e2 resp. e1; b reflects
    in the root (-1, k, k - 1)/2.
    """
    k = GOLDEN
    half = FieldElement(1) / 2
    a = Matrix([(ONE, ZERO, ZERO), (ZERO, -ONE, ZERO), (ZERO, ZERO, ONE)])
    b = Matrix([(half, k * half, (k - 1) * half),
                (k * half, (1 - k) * half, -half),
                ((k - 1) * half, -half, k * half)])
    c = Matrix([(-ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)])
    return H3Generators(a, b, c)


@dataclass
class H3TableVerdict:
    ok: bool
    problems: list
    class_count: int
    no_plus_one_classes: int


def _expected_h3_charpolys():
    """The published char polynomials as det(M - tI), keyed by word."""
    k = GOLDEN
    one_minus_t = (ONE, -ONE)
    return {
        "identity": poly_mul(poly_mul(one_minus_t, one_minus_t), one_minus_t),
        "ac": poly_mul(one_minus_t, poly_mul((ONE, ONE), (ONE, ONE))),
        "bc": poly_mul(one_minus_t, (ONE, ONE, ONE)),
        "ab": poly_mul(one_minus_t, (ONE, ONE - k, ONE)),
        "abab": poly_mul(one_minus_t, (ONE, k, ONE)),
    }


def h3_charpoly_table_check() -> H3TableVerdict:
    """Check the rank-3 fixture: relations, char polynomials, class census."""
    problems = []
    gens = build_h3_generators()
    a, b, c = gens.a, gens.b, gens.c
    ident = Matrix.identity(3)

    for name, m in (("a", a), ("b", b), ("c", c)):
        if m * m != ident:
            problems.append(f"{name}^2 != identity")
    if (a * b) ** 5 != ident:
        problems.append("(ab)^5 != identity")
    if (b * c) ** 3 != ident:
        problems.append("(bc)^3 != identity")
    if (a * c) ** 2 != ident:
        problems.append("(ac)^2 != identity")

    words = {"identity": ident, "ac": a * c, "bc": b * c, "ab": a * b,
             "abab": (a * b) ** 2}
    expected = _expected_h3_charpolys()
    for name, m in words.items():
        # charpoly() returns det(tI - M); the published forms are det(M - tI)
        ours = poly_neg(m.charpoly())
        if ours != expected[name]:
            problems.append(f"characteristic polynomial of {name} differs")
        if not (m - ident).det().is_zero:
            problems.append(f"{name} unexpectedly has no eigenvalue +1")

    elements, index = closure([ident], [a, b, c], lambda m, g: g * m)
    if len(elements) != 120:
        problems.append(f"group order {len(elements)}, expected 120")
    # the generators are involutions, so g m g is conjugation by g
    classes = orbits(elements, index, [a, b, c], lambda m, g: g * m * g)
    class_count = len(classes)
    if class_count != 10:
        problems.append(f"{class_count} classes, expected 10")

    no_plus = []
    for members in classes:
        rep = elements[members[0]]
        if (rep - ident).det().is_zero:
            continue
        no_plus.append(members[0])
        if rep.det() != -ONE:
            problems.append("a class without eigenvalue +1 has determinant +1")
    if len(no_plus) != 4:
        problems.append(f"{len(no_plus)} classes without eigenvalue +1, expected 4")

    # the four must be the negatives of identity, bc, ab and abab
    class_of = {}
    for ci, members in enumerate(classes):
        for m in members:
            class_of[m] = ci
    expected_members = [-ident, -(b * c), -(a * b), -((a * b) ** 2)]
    expected_classes = {class_of[index[m]] for m in expected_members}
    if expected_classes != {class_of[i] for i in no_plus}:
        problems.append("the classes without eigenvalue +1 are not the expected four")
    if not ((-(a * c)) - ident).det().is_zero:
        problems.append("-(ac) should keep eigenvalue +1")

    return H3TableVerdict(not problems, problems, class_count, len(no_plus))


# -- the rank-4 cross-check ------------------------------------------------------


@dataclass
class H4CensusVerdict:
    ok: bool
    problems: list
    class_count: int
    traces: int
    supertraces: int
    rotation_classes: int
    reversing_classes: int


def h4_class_census() -> H4CensusVerdict:
    """Class census of the rank-4 group against the quaternion picture.

    Orientation-reversing classes (negative determinant; the x -> p x*
    actions) must all keep eigenvalue +1; among the rotation classes
    exactly the l0 != r0 ones drop it.
    """
    problems = []
    group = shared_group(build_irreducible(parse_factor("H4")))
    classes = conjugacy_classes(group)
    if len(classes) != 34:
        problems.append(f"{len(classes)} classes, expected 34")
    rotations = [c for c in classes if c.det == ONE]
    reversing = [c for c in classes if c.det == -ONE]
    if len(reversing) != 9:
        problems.append(f"{len(reversing)} orientation-reversing classes, expected 9")
    if any(not c.has_plus_one for c in reversing):
        problems.append("an orientation-reversing class misses eigenvalue +1")
    rot_no_plus = sum(1 for c in rotations if not c.has_plus_one)
    if len(rotations) != 25 or rot_no_plus != 20:
        problems.append(f"rotation classes split {rot_no_plus}/{len(rotations)}, "
                        "expected 20/25")
    traces = sum(1 for c in classes if not c.has_plus_one)
    supertraces = sum(1 for c in classes if not c.has_minus_one)
    if traces != 20 or supertraces != 20:
        problems.append(f"counts ({traces}, {supertraces}), expected (20, 20)")
    return H4CensusVerdict(not problems, problems, len(classes), traces,
                           supertraces, len(rotations), len(reversing))
