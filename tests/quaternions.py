"""Test oracle: the unit quaternions over the sqrt(5) field.

The rank-4 icosahedral group is realized on the unit quaternions:
rotations act as x -> l x r* with unit quaternions l, r,
orientation-reversing elements as x -> p x*.  A rotation class misses
eigenvalue +1 exactly when the real parts of l and r differ, which is
what the determinant identity det(x -> lx - xr) = 4 (l0 - r0)^2 encodes.
The 120 unit icosians are the roots of the oracle's H4 model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from coxtraces.roots import closure
from field import (GOLDEN, HALF, ONE, ZERO, FieldElement, gauss_det,
                   transpose)


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
    units = closure([_Q_BASIS[0]], gens, lambda q, g: q * g)[0]
    return tuple(sorted(units, key=lambda q: q.coords))


def _require_unit(q: Quaternion, name: str):
    if not q.is_unit:
        raise ValueError(f"{name} must be a unit quaternion, |{name}|^2 = {q.norm()}")


def lr_action_matrix(l: Quaternion, r: Quaternion) -> tuple:
    """4x4 matrix (rows) of the rotation x -> l x r* in the basis 1, i, j, k."""
    _require_unit(l, "l")
    _require_unit(r, "r")
    rc = r.conjugate()
    return transpose([(l * e * rc).coords for e in _Q_BASIS])


def star_action_matrix(p: Quaternion) -> tuple:
    """4x4 matrix (rows) of the orientation-reversing action x -> p x*."""
    _require_unit(p, "p")
    return transpose([(p * e.conjugate()).coords for e in _Q_BASIS])


def lr_fixed_point_criterion(l: Quaternion, r: Quaternion):
    """(det of x -> l x - x r, whether the rotation keeps eigenvalue +1).

    The rotation x -> l x r* fixes a nonzero vector exactly when l and r
    share their real part, i.e. when this determinant vanishes.
    """
    _require_unit(l, "l")
    _require_unit(r, "r")
    commutator = transpose([(l * e - e * r).coords for e in _Q_BASIS])
    return gauss_det(commutator), l.q0 == r.q0
