"""Test oracle: the dihedral group of the regular n-gon as abstract tuples.

Elements are ('s', k), the rotation by 2 pi k / n, and ('r', k), the
reflection whose axis sits at angle pi k / n.  The classes are the
orbits of the explicit element list under conjugation by two
reflections, and the eigenvalue flags come from the rotation angle, so
the counts here need neither roots, a coordinate ring nor the closed
forms floor(n/2) and floor((n+1)/2).
"""

from __future__ import annotations

from collections import namedtuple

from coxtraces.partitions import TraceCount
from coxtraces.roots import closure


def dihedral_mul(x, y, n: int):
    """Product in the dihedral group of the regular n-gon."""
    (kx, ax), (ky, ay) = x, y
    if kx == "s" and ky == "s":
        return ("s", (ax + ay) % n)
    if kx == "r" and ky == "r":
        return ("s", (ax - ay) % n)
    if kx == "r":
        return ("r", (ax - ay) % n)
    return ("r", (ax + ay) % n)


def dihedral_element_flags(element, n: int):
    """(has +1, has -1) for the 2x2 action of a dihedral element.

    Every reflection fixes its axis and negates the orthogonal one; the
    rotation by 2 pi k / n has eigenvalue +1 only for k = 0 and -1 only
    for the half turn, which exists only when n is even.
    """
    kind, k = element
    if kind == "r":
        return True, True
    return k == 0, n % 2 == 0 and k == n // 2


class DihedralClassSummary(namedtuple(
        "DihedralClassSummary", "n classes traces supertraces "
                                "rotation_classes reflection_classes")):
    """The classes of I2(n), each a sorted tuple of elements, and counts."""

    __slots__ = ()

    def counts(self) -> TraceCount:
        return TraceCount(self.traces, self.supertraces, "brute_force")


def dihedral_classes(n: int) -> DihedralClassSummary:
    """Conjugacy classes of the dihedral group of the n-gon, by enumeration
    (orbits of the explicit element list under conjugation by the two
    generating reflections), not from the known answer."""
    if n < 3:
        raise ValueError(f"dihedral model needs n >= 3, got {n}")
    elements = [("s", k) for k in range(n)] + [("r", k) for k in range(n)]
    # reflections are involutions, so g x g is conjugation by g
    classes, seen = [], set()
    for x in elements:
        if x not in seen:
            orbit = closure([x], [("r", 0), ("r", 1)],
                            lambda y, g: dihedral_mul(dihedral_mul(g, y, n), g, n))[0]
            seen.update(orbit)
            classes.append(tuple(sorted(orbit)))
    classes.sort()
    traces = 0
    supertraces = 0
    rotation_classes = 0
    reflection_classes = 0
    for cls in classes:
        has_plus, has_minus = dihedral_element_flags(cls[0], n)
        if not has_plus:
            traces += 1
        if not has_minus:
            supertraces += 1
        if cls[0][0] == "s":
            rotation_classes += 1
        else:
            reflection_classes += 1
    return DihedralClassSummary(n, classes, traces, supertraces,
                                rotation_classes, reflection_classes)
