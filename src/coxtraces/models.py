"""Hand-built checks for the two icosahedral groups.

The rank-3 group gets its three published generator matrices over the
golden integers Z[phi] (the library's ring with N = 5), with
half-integer coordinates, checked against the defining relations and
the published characteristic polynomials.  The class census of the
rank-4 group is checked against the quaternion picture: rotations act
as x -> l x r* with unit quaternions l, r, orientation-reversing
elements as x -> p x*, and a rotation class misses eigenvalue +1
exactly when the real parts of l and r differ.  (The quaternion model
itself is a test oracle, tests/quaternions.py.)
"""

from __future__ import annotations

from collections import namedtuple

from .classes import conjugacy_classes
from .group import shared_group
from .linalg import Matrix, coordinate_ring
from .roots import build_irreducible, closure, parse_factor


# -- the rank-3 generator fixture ----------------------------------------------


H3Generators = namedtuple("H3Generators", "a b c")


def build_h3_generators() -> H3Generators:
    """The three published reflection generators, with k the golden ratio.

    a and c are the coordinate reflections fixing e2 resp. e1; b reflects
    in the root (-1, k, k - 1)/2.  An entry x + y*k is stored as (x, y).
    """
    from fractions import Fraction  # for the half-integer entries only
    golden, h = coordinate_ring(5), Fraction(1, 2)
    one, zero, minus = golden.one, golden.zero, golden.integer(-1)
    a = Matrix([(one, zero, zero), (zero, minus, zero), (zero, zero, one)],
               golden)
    # 1/2, k/2, (k - 1)/2; k/2, (1 - k)/2, -1/2; (k - 1)/2, -1/2, k/2
    b = Matrix([((h, 0), (0, h), (-h, h)),
                ((0, h), (h, -h), (-h, 0)),
                ((-h, h), (-h, 0), (0, h))], golden)
    c = Matrix([(minus, zero, zero), (zero, one, zero), (zero, zero, one)],
               golden)
    return H3Generators(a, b, c)


H3TableVerdict = namedtuple("H3TableVerdict",
                            "ok problems class_count no_plus_one_classes")


# The published characteristic polynomials det(M - tI), keyed by word:
# (1 - t)^3, (1 - t)(1 + t)^2, (1 - t)(1 + t + t^2), (1 - t)(1 + (1 - k)t
# + t^2) and (1 - t)(1 + kt + t^2), expanded, ascending in t, with x + y*k
# stored as (x, y).
_PUBLISHED_H3_CHARPOLYS = {
    "identity": ((1, 0), (-3, 0), (3, 0), (-1, 0)),
    "ac": ((1, 0), (1, 0), (-1, 0), (-1, 0)),
    "bc": ((1, 0), (0, 0), (0, 0), (-1, 0)),
    "ab": ((1, 0), (0, -1), (0, 1), (-1, 0)),
    "abab": ((1, 0), (-1, 1), (1, -1), (-1, 0)),
}


def h3_charpoly_table_check() -> H3TableVerdict:
    """Check the rank-3 fixture: relations, char polynomials, class census."""
    problems = []
    gens = build_h3_generators()
    a, b, c = gens.a, gens.b, gens.c
    golden = a.ring
    ident = Matrix.identity(3, golden)

    for name, m in (("a", a), ("b", b), ("c", c)):
        if m * m != ident:
            problems.append(f"{name}^2 != identity")
    if (a * b) ** 5 != ident:
        problems.append("(ab)^5 != identity")
    if (b * c) ** 3 != ident:
        problems.append("(bc)^3 != identity")
    if (a * c) ** 2 != ident:
        problems.append("(ac)^2 != identity")
    if problems:
        # generators that break a Coxeter relation may generate an
        # infinite group: only a quotient of W(H3) is safe to enumerate
        return H3TableVerdict(False, problems, 0, 0)

    words = {"identity": ident, "ac": a * c, "bc": b * c, "ab": a * b,
             "abab": (a * b) ** 2}
    for name, m in words.items():
        # charpoly() returns det(tI - M); the published forms are det(M - tI)
        ours = tuple(map(golden.neg, m.charpoly()))
        if ours != _PUBLISHED_H3_CHARPOLYS[name]:
            problems.append(f"characteristic polynomial of {name} differs")
        if any((m - ident).det()):
            problems.append(f"{name} unexpectedly has no eigenvalue +1")

    elements, index, _ = closure([ident], [a, b, c], lambda m, g: g * m)
    if len(elements) != 120:
        problems.append(f"group order {len(elements)}, expected 120")
    # the generators are involutions, so g m g is conjugation by g; each
    # class is the closure of its least element, in id order
    classes, seen = [], set()
    for m in elements:
        if m not in seen:
            orbit = closure([m], [a, b, c], lambda x, g: g * x * g)[0]
            seen.update(orbit)
            classes.append([index[x] for x in orbit])
    class_count = len(classes)
    if class_count != 10:
        problems.append(f"{class_count} classes, expected 10")

    no_plus = []
    for members in classes:
        rep = elements[members[0]]
        if not any((rep - ident).det()):
            continue
        no_plus.append(members[0])
        if rep.det() != golden.integer(-1):
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
    if any((-(a * c) - ident).det()):
        problems.append("-(ac) should keep eigenvalue +1")

    return H3TableVerdict(not problems, problems, class_count, len(no_plus))


# -- the rank-4 cross-check ------------------------------------------------------


H4CensusVerdict = namedtuple(
    "H4CensusVerdict", "ok problems class_count traces supertraces "
                       "rotation_classes reversing_classes")


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
    rotations = [c for c in classes if c.det == 1]
    reversing = [c for c in classes if c.det == -1]
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
