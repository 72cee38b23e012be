"""Generation of finite reflection groups: half a BFS and its mirror.

Elements are stored as permutations of the root list, one byte per
root (so at most 256 roots), and composition is a single bytes.translate
call.  A BFS by left multiplication with the simple reflections, in
simple-root order, finds the elements of length 0..floor(N/2), N =
|R|/2; each longer layer N - k is w0 times layer k, as the longest
element w0 maps length k onto N - k (Bjorner-Brenti 2.3.2).  Ids are
the BFS ids, then the mirrored layers by length.

Conjugacy classes are walked modulo the certified centre of W: z C is
a class for every central z, so once the walk has found C it takes each
z C whole, one translate and one lookup per member.  The centre is the
product of the factor centres, each {1, -1 on that factor} or trivial.

Roots are coordinate vectors in the simple basis over the system's ring
Z[2cos(pi/N)], so the matrix of an element on the span of the roots has
the images of the simple roots as its columns; no other matrix model
exists.  Every finite Coxeter group has such a model.  Whether a system
is enumerated at all is decided from the factor formulas
(check_enumerable) before any root is built: the limits are 256 roots,
N <= 128, the budget and the heavy threshold.
"""

from __future__ import annotations

import os
import struct
from collections import namedtuple
from functools import reduce
from itertools import accumulate

from .linalg import CertificateError, Matrix
from .roots import (BudgetExceededError, RootSystem, checked_ring_index,
                    closure, orbits, parse_system_spec,
                    refuse_tuple_arithmetic, system_from_spec, system_label,
                    system_order)

DEFAULT_BUDGET = 10_000_000
# enumerations past this order (W(E7), D8, A9, ...) must be asked for explicitly
HEAVY_THRESHOLD = 1_000_000

_E8_ORDER = 696_729_600

_MAX_ROOTS = 256  # one byte per root

_CACHE_MAGIC = b"CXGC"
# version 3 marks the payload above the mirror line as w0 order; version 2
# files, in either order, give the same classes and still load
CACHE_VERSION = 3
_CACHE_BLOCK = 4096  # elements hashed and written per join


class GroupElement(namedtuple("GroupElement", "group index")):
    """One group element: a dense id inside its parent group."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = refuse_tuple_arithmetic
    __lt__ = __le__ = __gt__ = __ge__ = refuse_tuple_arithmetic

    def matrix(self) -> Matrix:
        return self.group.span_matrix_of(self.index)

    def __repr__(self):
        return f"GroupElement({self.group.system.label}, {self.index})"


class Group:
    """A fully enumerated reflection group over a root system."""

    def __init__(self, system: RootSystem, perms, index, generator_ids):
        self.system = system
        self.perms = perms
        self.index = index
        self.generator_ids = tuple(generator_ids)
        self.order = len(perms)

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    # -- matrices ------------------------------------------------------------

    def span_matrix_of(self, i: int) -> Matrix:
        """Matrix of element i on the span of the roots, in the simple basis:
        column b is the root that element i sends simple root b to.

        This is the space on which eigenvalues are counted; for A-type
        factors it has no fixed all-ones direction, as required.
        """
        perm, system = self.perms[i], self.system
        return Matrix.from_columns([system.roots[perm[b]]
                                    for b in system.simple_root_indices],
                                   system.ring)

    def power_traces(self, i: int) -> list:
        """tr(w^k) for k = 1..rank, w element i, on the span of the roots:
        the sum over b of coordinate b of the root w^k sends simple root
        b to.  No matrix is built: each power's images of the simple
        roots are the previous ones translated by w's table."""
        perm, roots = self.perms[i], self.system.roots
        images = bytes(perm[s] for s in self.system.simple_root_indices)
        table, traces = _table(perm), []
        for _ in images:
            diagonal = (roots[r][b] for b, r in enumerate(images))
            traces.append(tuple(map(sum, zip(*diagonal))))
            images = images.translate(table)
        return traces

    # -- classes -----------------------------------------------------------------

    def class_orbits(self):
        """Conjugacy classes as id lists, each starting with its
        representative: orbits under conjugation by the certified walk set,
        by least element in the full BFS numbering.  Ids below the mirror
        line (length <= floor(N/2)) are BFS ids; classes with none follow,
        ranked by _bfs_key.  Classes are walked modulo the certified
        centre: each z C, z central, is taken whole from C."""
        walk = self.walk_set()
        _certify_walk_set(walk, [self.perms[i] for i in self.generator_ids])
        found = orbits(self.perms, self.index, [_walker(g) for g in walk],
                       _conjugate, [_table(z) for z in self.center()[1:]])
        line = sum(_poincare(self.system)[:len(self.system.roots) // 4 + 1])
        ranked = sorted(_bfs_key(self, m) for m in found if m[0] >= line)
        return ([m for m in found if m[0] < line]
                + [[rep] + [i for i in m if i != rep] for _, rep, m in ranked])

    def walk_set(self) -> list:
        """A small generating set to conjugate by: the Coxeter element
        c = s_1 s_2 ... s_r, then each simple reflection, in order, that
        the reflections chosen so far do not reach by conjugation under
        the set; the simple reflections themselves when that is no
        smaller (B2, G2, every I2(m)).  A0 has no generators."""
        simple = [self.perms[i] for i in self.generator_ids]
        if not simple:
            return []
        walk = [reduce(_compose, simple)]
        for s in simple:
            if s not in _reach(walk, simple):
                walk.append(s)
        return walk if len(walk) < len(simple) else simple

    def center(self) -> list:
        """The centre of W, identity first: the products of the factor
        negations (-1 on one factor's roots, every other root fixed) that
        lie in the group, each certified to commute with every simple
        reflection, so with W: then it maps each class onto a class."""
        system, start = self.system, 0
        identity = bytes(range(len(system.roots)))
        center = [identity]
        for f in system.factors:
            end = start + f.root_count
            z = identity[:start] + system.negation[start:end] + identity[end:]
            if start < end:
                center += [p for p in (_compose(z, c) for c in center)
                           if p in self.index]
            start = end
        for z in center[1:]:
            if any(_compose(z, self.perms[i]) != _compose(self.perms[i], z)
                   for i in self.generator_ids):
                raise CertificateError(f"the centre candidate {list(z)} does "
                                       "not commute with every simple "
                                       "reflection")
        return center


def _table(p: bytes) -> bytes:
    """p as a translate table: q.translate(_table(p)) is p after q."""
    return p.ljust(256, b"\x00")


def _compose(p: bytes, q: bytes) -> bytes:
    """p after q, i.e. (p o q)[i] = p[q[i]]."""
    return q.translate(_table(p))


def _invert(p: bytes) -> bytes:
    # the table sending p[i] to i starts with the inverse of p
    return bytes.maketrans(p, bytes(range(len(p))))[:len(p)]


def _walker(g: bytes) -> tuple:
    """The (inverse, table) pair of g that _conjugate takes."""
    return _invert(g), _table(g)


def _conjugate(x: bytes, g) -> bytes:
    """g x g^-1 for g given as (its inverse, its table)."""
    inverse, table = g
    return inverse.translate(x.translate(table).ljust(256, b"\x00"))


def _descend(system, w: bytes, ascend: bool = False) -> tuple:
    """w <- w s_k for the least k with w(alpha_k) negative (positive when
    ascending) until there is none: the identity (w0) and the k taken."""
    positive, simple, word = system.positive, system.simple_root_indices, ()
    while ks := [k for k, a in enumerate(simple) if positive[w[a]] == ascend]:
        word += (ks[0],)
        w = _compose(w, system.simple_reflections[ks[0]])
    return w, word


def _length(system, w: bytes) -> int:
    """The number of positive roots that w sends to negative roots."""
    positive = system.positive
    return sum(1 for r, p in enumerate(positive) if p and not positive[w[r]])


def _bfs_key(group: Group, members) -> tuple:
    """((length, word), id, members) of the member the full BFS finds
    first: least length, then least lex-first reduced word of w^-1 (the
    BFS reads its frontier in id order and tries s_0, s_1, ... in turn).
    The least-length members descend together as _descend does, and only
    those taking the least letter go on."""
    system, perms = group.system, group.perms
    positive, simple = system.positive, system.simple_root_indices
    lengths = {i: _length(system, perms[i]) for i in members}
    least = min(lengths.values())
    alive, word = {i: perms[i] for i in members if lengths[i] == least}, ()
    for _ in range(least):
        first = {i: next(k for k, a in enumerate(simple) if not positive[w[a]])
                 for i, w in alive.items()}
        k = min(first.values())
        alive = {i: _compose(w, system.simple_reflections[k])
                 for i, w in alive.items() if first[i] == k}
        word += (k,)
    return (least, word), min(alive), members


def _reach(walk, simple) -> dict:
    """The conjugates, under the group the walk set generates, of the
    simple reflections in it: every one lies in that group."""
    seeds = [g for g in walk if g in simple]
    return closure(seeds, [_walker(g) for g in walk], _conjugate)[1]


def _certify_walk_set(walk, simple) -> None:
    """Raise unless every simple reflection is a conjugate of one in the
    walk set under the walk set: then the set generates W, and its
    conjugation orbits are the conjugacy classes of W."""
    reached = _reach(walk, simple)
    missing = [k for k, s in enumerate(simple) if s not in reached]
    if missing:
        raise CertificateError(f"the class walk set does not reach the "
                               f"simple reflections {missing}; it may not "
                               "generate W")


def check_enumerable(factors, budget: int = DEFAULT_BUDGET,
                     heavy: bool = False, allow_e8: bool = False) -> None:
    """Refuse, from the factor formulas alone, what generate_group cannot
    or should not enumerate: more than 256 roots, a coordinate ring
    Z[2cos(pi/N)] with N > 128, anything above the budget and, unless
    explicitly unlocked, W(E8) and orders past the heavy threshold."""
    label = system_label(factors)
    n = sum(f.root_count for f in factors)
    if n > _MAX_ROOTS:
        raise BudgetExceededError(
            f"{label} has {n} roots; enumeration stores one byte per "
            f"root, so it is limited to {_MAX_ROOTS} roots")
    checked_ring_index(factors)
    estimate = system_order(factors)
    if any(f.family == "E" and f.n == 8 for f in factors) and not allow_e8:
        raise BudgetExceededError(
            f"enumerating {label} means walking W(E8) "
            f"(order {_E8_ORDER:,}), which is beyond desk scale; counts for it "
            "come from the closed form")
    if estimate > budget:
        raise BudgetExceededError(
            f"estimated order {estimate:,} of {label} exceeds the "
            f"enumeration budget {budget:,} (W(E8), order {_E8_ORDER:,}, is "
            "the known system above the default budget)")
    if estimate > HEAVY_THRESHOLD and not heavy:
        raise BudgetExceededError(
            f"estimated order {estimate:,} of {label} exceeds "
            f"{HEAVY_THRESHOLD:,}; pass heavy=True (--heavy) to run it")


def generate_group(system: RootSystem, budget: int = DEFAULT_BUDGET,
                   heavy: bool = False, allow_e8: bool = False) -> Group:
    """Enumerate the reflection group of a root system, after the refusals
    of check_enumerable.  The BFS certifies the lower layers, w0 is
    certified longest, the layer sizes are the coefficients of the
    Poincare polynomial, of degree |R|/2 with one element on top, and no
    element repeats: so the |W| elements are W, each in its length layer."""
    check_enumerable(system.factors, budget, heavy, allow_e8)
    gen_perms = system.simple_reflections
    top, half = len(system.roots) // 2, len(system.roots) // 4
    # x.translate(_table(g)) is g after x
    perms, index, layers = closure([bytes(range(len(system.roots)))],
                                   [_table(g) for g in gen_perms],
                                   bytes.translate, depth=half + 1)
    w0 = _table(longest_element(system))
    for end, size in reversed(list(zip(accumulate(layers), layers))[:top - half]):
        mirrored = [x.translate(w0) for x in perms[end - size:end]]
        index.update(zip(mirrored, range(len(perms), len(perms) + size)))
        perms.extend(mirrored)
        layers.append(size)
    expected = _poincare(system)
    if layers != expected or len(layers) != top + 1:
        raise CertificateError(f"BFS layer sizes {layers} of {system.label} "
                               f"are not the Poincare polynomial {expected} "
                               f"of its degrees, of degree {top}")
    if len(index) != len(perms):
        raise CertificateError(f"the w0 mirror of {system.label} repeats "
                               f"{len(perms) - len(index)} elements")
    generator_ids = [index[g] for g in gen_perms]
    return Group(system, perms, index, generator_ids)


def longest_element(system: RootSystem) -> bytes:
    """The longest element w0 as a root permutation: w <- w s_k from the
    identity while some w(alpha_k) is positive, certified to send all
    |R|/2 positive roots to negative roots."""
    w0 = _descend(system, bytes(range(len(system.roots))), ascend=True)[0]
    if not system.positive.count(1) == _length(system, w0) == len(w0) // 2:
        raise CertificateError(f"{system.label}: the element taken for w0 "
                               "sends a positive root to a positive root")
    return w0


def _poincare(system: RootSystem) -> list:
    """The number of elements of each length: the coefficients of the
    Poincare polynomial prod_i (1 + q + ... + q^(d_i - 1)) over the
    degrees d_i (Chevalley 1955)."""
    coefficients = [1]
    for d in (d for f in system.factors for d in f.degrees):
        # times 1 + q + ... + q^(d-1): coefficient k sums a window of d
        coefficients = [sum(coefficients[max(k - d + 1, 0):k + 1])
                        for k in range(len(coefficients) + d - 1)]
    return coefficients


def contains_minus_identity(system: RootSystem) -> bool:
    """Whether -identity (on the full ambient space) lies in W, with no
    enumeration: exactly when w0 = -1, as w0 is the one element sending
    every positive root to a negative root (Humphreys 1.8)."""
    # directions with no roots are fixed pointwise by every element
    return system.trivial_dims == 0 and longest_element(system) == system.negation


# -- shared in-process cache ----------------------------------------------------


_SHARED: dict = {}


def shared_group(system: RootSystem, budget: int = DEFAULT_BUDGET,
                 heavy: bool = False) -> Group:
    """Memoized generate_group keyed by the system label."""
    if system.label not in _SHARED:
        _SHARED[system.label] = generate_group(system, budget=budget,
                                               heavy=heavy)
    return _SHARED[system.label]


# -- on-disk cache ----------------------------------------------------------------


class CacheFormatError(ValueError):
    """The cache file is not readable as a group snapshot."""


def save_group(group: Group, path) -> None:
    """Write a versioned binary snapshot: header, the SHA-256 digest of the
    payload, then the payload of byte permutations.  The file is written
    under a temporary name and renamed into place."""
    # hashlib is imported only here and in load_group: it loads OpenSSL,
    # about 4 MB of resident memory that a run without the cache never needs
    import hashlib
    label, ids, perms = group.system.label.encode(), group.generator_ids, group.perms
    digest = hashlib.sha256()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        # the width byte is always 1
        fh.write(struct.pack("<4sBBH", _CACHE_MAGIC, CACHE_VERSION, 1, len(label))
                 + label
                 + struct.pack("<IQH", len(group.system.roots), group.order,
                               len(ids))
                 + struct.pack(f"<{len(ids)}I", *ids))
        digest_at = fh.tell()
        fh.write(bytes(32))  # the digest, once the payload is written
        for k in range(0, len(perms), _CACHE_BLOCK):
            block = b"".join(perms[k:k + _CACHE_BLOCK])
            digest.update(block)
            fh.write(block)
        fh.seek(digest_at)
        fh.write(digest.digest())
    os.replace(tmp, path)


def load_group(path) -> Group:
    """Rebuild a group from a snapshot; the root system is rebuilt from its
    label, and the payload must match its digest, the system's simple
    reflections and the group order."""
    import hashlib  # see save_group
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        magic, version, width, label_len = struct.unpack_from("<4sBBH", blob, 0)
        if magic != _CACHE_MAGIC:
            raise CacheFormatError(f"{path} is not a group cache file")
        if version not in (2, CACHE_VERSION):
            raise CacheFormatError(f"{path} has cache version {version}, "
                                   "expected 2 or 3")
        if width != 1:
            raise CacheFormatError(
                f"{path} stores {width} bytes per root, expected 1")
        offset = 8
        label = blob[offset:offset + label_len].decode()
        offset += label_len
        n, order, n_gens = struct.unpack_from("<IQH", blob, offset)
        offset += 14
        generator_ids = list(struct.unpack_from(f"<{n_gens}I", blob, offset))
        offset += 4 * n_gens
        stored_digest = blob[offset:offset + 32]
        offset += 32
        factors = parse_system_spec(label)
    except CacheFormatError:
        raise
    except (struct.error, ValueError) as exc:  # truncated, or a bad label
        raise CacheFormatError(f"{path}: unreadable header ({exc})") from exc
    if n > _MAX_ROOTS or n != sum(f.root_count for f in factors):
        raise CacheFormatError(
            f"{path}: root count {n} does not match the {label} model")
    try:
        checked_ring_index(factors)
    except BudgetExceededError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
    if order != system_order(factors):
        raise CacheFormatError(
            f"{path}: order {order} does not match |W({label})| = "
            f"{system_order(factors)}")
    if len(blob) - offset != order * n:
        raise CacheFormatError(
            f"{path}: payload has {len(blob) - offset} bytes, expected "
            f"{order} x {n}")
    if hashlib.sha256(memoryview(blob)[offset:]).digest() != stored_digest:
        raise CacheFormatError(f"{path}: payload does not match its digest")
    if any(g >= order for g in generator_ids):
        raise CacheFormatError(f"{path}: generator id out of range")
    system = system_from_spec(label)
    perms = [blob[offset + k * n:offset + (k + 1) * n] for k in range(order)]
    del blob  # the perms are copies: free the file image before the index
    if [perms[g] for g in generator_ids] != list(system.simple_reflections):
        raise CacheFormatError(
            f"{path}: generators are not the simple reflections of {label}")
    index = {p: i for i, p in enumerate(perms)}
    if len(index) != order:
        raise CacheFormatError(f"{path}: payload repeats an element")
    return Group(system, perms, index, generator_ids)
