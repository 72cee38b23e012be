"""Test oracle: root systems as explicit vectors of Euclidean space, the
models the library used before it built roots from Cartan matrices.

A, B, D, F4 and E8 are the classical coordinate models (E7 and E6 are the
E8 roots orthogonal to e7 + e8, and also to e6 + e7); G2 lies in the
sum-zero plane of R^3; H3 is (+-1,0,0) plus (+-1,+-phi,+-1/phi)/2 up to
cyclic shifts; H4 is the 120 unit icosians; I2(3), I2(4) and I2(6) borrow
A2, B2 and G2, and I2(5) is the ten H3 roots orthogonal to (0, -phi, 1).
The simple roots come from the lexicographic order alone: a positive
root is simple exactly when its reflection permutes the other positive
roots.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from field import (GOLDEN, HALF, ONE, ZERO, dot, transpose, vadd, vneg, vscale,
                   vsub)
from quaternions import unit_icosians


def _unit(n, i, value=ONE):
    return tuple(value if k == i else ZERO for k in range(n))


def _differences(n):
    return [vsub(_unit(n, i), _unit(n, j))
            for i in range(n) for j in range(n) if i != j]


def _short(n):
    return [_unit(n, i, s) for i in range(n) for s in (ONE, -ONE)]


def _long(n):
    return [vadd(_unit(n, i, si), _unit(n, j, sj)) for i in range(n)
            for j in range(i + 1, n) for si in (ONE, -ONE) for sj in (ONE, -ONE)]


def _halves(n, even=False):
    """(+-1, ..., +-1)/2, with an even number of minus signs if asked."""
    return [r for r in itertools.product((HALF, -HALF), repeat=n)
            if not even or sum(c < ZERO for c in r) % 2 == 0]


def _orthogonal(roots, *markers):
    return [r for r in roots if all(dot(r, m).is_zero for m in markers)]


def _h3():
    base = (ONE, GOLDEN, GOLDEN - 1)
    return _short(3) + [tuple(s * v for s, v in zip(signs, base[-k:] + base[:-k]))
                        for k in range(3) for signs in _halves(3)]


def _g2():
    # 2e_i - e_j - e_k
    long_roots = [vsub(_unit(3, i, 3 * ONE), (ONE,) * 3) for i in range(3)]
    return _differences(3) + long_roots + [vneg(r) for r in long_roots]


_E7_MARK = (ZERO,) * 6 + (ONE, ONE)
_E6_MARK = (ZERO,) * 5 + (ONE, ONE, ZERO)
MODELS = {
    "E8": lambda: _long(8) + _halves(8, even=True),
    "E7": lambda: _orthogonal(_long(8) + _halves(8, even=True), _E7_MARK),
    "E6": lambda: _orthogonal(_long(8) + _halves(8, even=True), _E7_MARK,
                              _E6_MARK),
    "F4": lambda: _short(4) + _long(4) + _halves(4),
    "G2": _g2,
    "H3": _h3,
    "H4": lambda: [u.coords for u in unit_icosians()],
    "I2(3)": lambda: _differences(3),
    "I2(4)": lambda: _short(2) + _long(2),
    "I2(5)": lambda: _orthogonal(_h3(), (ZERO, -GOLDEN, ONE)),
    "I2(6)": _g2,
}


def ambient_roots(label: str) -> list:
    """Root vectors of one irreducible system, e.g. 'B5' or 'I2(5)'."""
    if label in MODELS:
        return sorted(MODELS[label]())
    n = int(label[1:])
    return sorted({"A": lambda: _differences(n + 1),
                   "B": lambda: _short(n) + _long(n),
                   "D": lambda: _long(n)}[label[0]]())


def reflect(x, v):
    """Image of x under the reflection in the hyperplane orthogonal to v."""
    return vsub(x, vscale((dot(x, v) * 2) / dot(v, v), v))


def reflection_matrix(v) -> tuple:
    """Matrix of the reflection in v (exact, orthogonal), as rows."""
    n = len(v)
    return transpose([reflect(_unit(n, i), v) for i in range(n)])


def _is_positive(root) -> bool:
    return next((c.sign() > 0 for c in root if not c.is_zero), False)


def simple_roots(roots) -> list:
    """The simple system of the lexicographic positive half, in root order."""
    positive = [r for r in roots if _is_positive(r)]
    pos_set = set(positive)
    return [v for v in positive
            if all(w == v or reflect(w, v) in pos_set for w in positive)]


def cartan(simple) -> list:
    """a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)."""
    return [[dot(a, b) * 2 / dot(a, a) for b in simple] for a in simple]


# -- the axiom check, in integer Z[phi] pairs ---------------------------------
#
# Every model lies in (Z[phi]/2)^n, so twice a root is a vector of pairs
# (x, y) = x + y*phi of integers, with phi^2 = phi + 1.  This arithmetic is
# the oracle's own: it shares nothing with the library's ring.


def _doubled(root) -> tuple:
    """2 * root as integer pairs: a + b*sqrt5 = (a - b) + 2b*phi."""
    out = []
    for c in root:
        x, y = 2 * (c.a - c.b), 4 * c.b
        if x.denominator != 1 or y.denominator != 1:
            raise ValueError(f"{root} does not lie in (Z[phi]/2)^n")
        out.append((int(x), int(y)))
    return tuple(out)


def _mul(p, q):
    (x, y), (u, w) = p, q
    return x * u + y * w, x * w + y * u + y * w


def _dot(r, v):
    sx = sy = 0
    for p, q in zip(r, v):
        x, y = _mul(p, q)
        sx += x
        sy += y
    return sx, sy


def _conjugate(p):
    # phi -> 1 - phi
    x, y = p
    return x + y, -y


def _line(r) -> tuple:
    """The line through a nonzero vector of pairs: r times the conjugate of
    its leading coordinate has a rational leading entry (the norm); made
    primitive with a positive leading entry, it is the same for every
    nonzero multiple of r in Q(sqrt5)."""
    lead = _conjugate(next(c for c in r if any(c)))
    flat = [x for c in r for x in _mul(c, lead)]
    scale = math.gcd(*flat) * (1 if next(x for x in flat if x) > 0 else -1)
    return tuple(x // scale for x in flat)


def _reflection_image(r, v, vv):
    """r - (2(r, v)/(v, v)) v, or None when the coefficient is not in
    Z[phi]: it is in every root system, being 2cos of an angle of one."""
    x, y = _dot(r, v)
    if not (x or y):
        return r
    # divide 2(r, v) by vv = (v, v) exactly: multiply by the conjugate of
    # vv, then divide by its norm
    px, py = _mul((2 * x, 2 * y), _conjugate(vv))
    norm = _mul(vv, _conjugate(vv))[0]
    if px % norm or py % norm:
        return None
    q = (px // norm, py // norm)
    return tuple((a - b, c - d)
                 for (a, c), (b, d) in zip(r, (_mul(q, e) for e in v)))


def axiom_problems(roots) -> list:
    """Violations of the root system axioms (the first of each kind)."""
    problems = []
    doubled = [_doubled(r) for r in roots]
    root_set = set(doubled)
    if len(root_set) != len(doubled):
        problems.append("duplicate roots")
    if any(not any(map(any, r)) for r in doubled):
        problems.append("zero vector listed as a root")
    if any(tuple((-x, -y) for x, y in r) not in root_set for r in doubled):
        problems.append("a root without its negative")
    # collinear roots may only come in +-v pairs: every line through a root
    # holds exactly two of them
    lines = Counter(_line(r) for r in doubled if any(map(any, r)))
    if any(k != 2 for k in lines.values()):
        problems.append("collinear roots other than +-v")
    for v, original in zip(doubled, roots):
        vv = _dot(v, v)
        if any(_reflection_image(r, v, vv) not in root_set for r in doubled):
            problems.append(f"reflection in {original} moves a root outside "
                            "the system")
            break
    return problems
