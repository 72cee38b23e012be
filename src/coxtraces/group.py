"""Generation of finite reflection groups: half a BFS, folded by w0.

Elements are permutations of the root list, one byte per root (so at
most 256 roots), and composition is a single bytes.translate call.  A
BFS by left multiplication with the simple reflections, in simple-root
order, finds the elements of length 0..floor(N/2), N = |R|/2; the
longest element w0 maps length k onto N - k (Bjorner-Brenti 2.3.2), so
with their w0 images they are W.

Only half of W is stored.  w0 sends every positive root to a negative
one, so for the first simple root beta exactly one of w and w0 w sends
beta to a positive root: the fold keeps that one, |W|/2 elements, and
one byte read, w[beta], says which of a pair an element is.  Id i < |W|/2
is stored element i, id i + |W|/2 is w0 times it.  The ids of the
lower half are kept in BFS order, which fixes the class order.

Conjugacy classes are walked modulo the certified centre of W: z C is
a class for every central z, so once the walk has found C it takes each
z C whole, with no conjugation.  The centre is the product of the
factor centres, each {1, -1 on that factor} or trivial.

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
from array import array
from collections import namedtuple
from functools import reduce
from itertools import compress, count
from operator import add, itemgetter, not_

from .linalg import CertificateError, Matrix
from .roots import (BudgetExceededError, RootSystem, checked_ring_index,
                    closure, parse_system_spec, refuse_tuple_arithmetic,
                    system_from_spec, system_label, system_order)

DEFAULT_BUDGET = 10_000_000
# enumerations past this order (W(E7), D8, A9, ...) must be asked for explicitly
HEAVY_THRESHOLD = 1_000_000

_E8_ORDER = 696_729_600

_MAX_ROOTS = 256  # one byte per root

_CACHE_MAGIC = b"CXGC"
# version 4 stores the elements of length <= floor(N/2) in BFS order;
# versions 2 and 3 store all of W, and their first elements are those
CACHE_VERSION = 4
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
    """A fully enumerated reflection group over a root system, stored as
    the half that sends beta to a positive root (see the module notes)."""

    def __init__(self, system: RootSystem, stored, index, lower, w0):
        self.system = system
        self.order = 2 * len(stored) if system.roots else 1
        self._stored, self._index, self._lower, self._w0 = stored, index, lower, w0
        self._beta = system.simple_root_indices[0] if system.roots else None
        self.generator_ids = tuple(map(self.id_of, system.simple_reflections))

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def perm(self, i: int) -> bytes:
        """Element i as a root permutation."""
        half = len(self._stored)
        if i < half:
            return self._stored[i]
        return self._stored[i - half].translate(self._w0)

    def id_of(self, perm: bytes) -> int:
        """The id of a root permutation; KeyError unless it lies in W."""
        if not perm or self.system.positive[perm[self._beta]]:
            return self._index[perm]
        return self._index[perm.translate(self._w0)] + len(self._stored)

    def __contains__(self, perm) -> bool:
        # translate(None) leaves the one element of a rootless group
        return perm in self._index or perm.translate(self._w0) in self._index

    # -- matrices ------------------------------------------------------------

    def span_matrix_of(self, i: int) -> Matrix:
        """Matrix of element i on the span of the roots, in the simple basis:
        column b is the root that element i sends simple root b to.

        This is the space on which eigenvalues are counted; for A-type
        factors it has no fixed all-ones direction, as required.
        """
        perm, system = self.perm(i), self.system
        return Matrix.from_columns([system.roots[perm[b]]
                                    for b in system.simple_root_indices],
                                   system.ring)

    def power_traces(self, i: int) -> list:
        """tr(w^k) for k = 1..rank, w element i, on the span of the roots:
        the sum over b of coordinate b of the root w^k sends simple root
        b to.  No matrix is built: each power's images of the simple
        roots are the previous ones translated by w's table."""
        perm, roots = self.perm(i), self.system.roots
        images = bytes(perm[s] for s in self.system.simple_root_indices)
        table, traces = _table(perm), []
        for _ in images:
            diagonal = (roots[r][b] for b, r in enumerate(images))
            traces.append(tuple(map(sum, zip(*diagonal))))
            images = images.translate(table)
        return traces

    # -- classes -----------------------------------------------------------------

    def class_orbits(self):
        """Conjugacy classes as id arrays, each starting with its
        representative: orbits under conjugation by the certified walk set,
        by least element in the full BFS numbering.  A class with an
        element of length <= floor(N/2) keeps its place by the first one
        in BFS order; classes with none follow, ranked by _bfs_key."""
        walk = self.walk_set()
        _certify_walk_set(walk, self.system.simple_reflections)
        try:
            found, label = self._orbits([_walker(g) for g in walk],
                                        self.center()[1:])
        except KeyError as exc:  # only a tampered cache file gets here
            raise CertificateError(f"a conjugate is not among the stored "
                                   f"elements of {self.system.label}, so "
                                   "they are not W") from exc
        first, lower = {}, self._lower  # class -> its first lower element
        for k in range(0, len(lower), 4096):  # in blocks, until all are met
            seq = array("I", map(label.__getitem__, lower[k:k + 4096]))
            first.update((c, lower[k + seq.index(c)])
                         for c in dict.fromkeys(seq) if c not in first)
            if len(first) == len(found):
                break
        upper = sorted(_bfs_key(self, m) for c, m in enumerate(found, 1)
                       if c not in first)
        ranked = ([(rep, found[c - 1]) for c, rep in first.items()]
                  + [(rep, m) for _, rep, m in upper])
        for rep, m in ranked:  # the representative first
            k = m.index(rep)
            m[0], m[k] = rep, m[0]
        return [m for _, m in ranked]

    def _orbits(self, walkers, shifts=()):
        """Orbits under the conjugations of _walker pairs, as id arrays, and
        the orbit number (from 1) of each id.  The walk keeps the orbit's
        elements as bytes, so each is looked up once, when first met, and
        no id is decoded.  Each shift is a central z: z C is an orbit,
        taken whole with one translate each."""
        stored, index, w0, beta = self._stored, self._index, self._w0, self._beta
        half, order, positive = len(stored), self.order, self.system.positive
        # z w0^e s = w0^e z s, and z s is stored, or w0 z s is when z
        # negates the factor of beta
        moves = [(_table(z), 0) if positive[z[beta]] else (_table(z.translate(w0)), half)
                 for z in shifts]
        label, found = array("I", bytes(4 * order)), []
        for seed in range(order):
            if label[seed]:
                continue
            c = label[seed] = len(found) + 1
            x = self.perm(seed)
            members, stack, walked = array("I", [seed]), [x], {x}
            while stack:
                x = stack.pop()
                table_x = x.ljust(256, b"\x00")
                for inverse, table in walkers:  # y = g x g^-1, as _conjugate
                    y = inverse.translate(table_x).translate(table)
                    if y not in walked:
                        walked.add(y)
                        stack.append(y)
                        i = index[y] if positive[y[beta]] else index[y.translate(w0)] + half
                        label[i] = c
                        members.append(i)
            found.append(members)
            for table, flip in moves:
                image = array("I", [(index[stored[i % half].translate(table)]
                                     + i - i % half + flip) % order for i in members])
                if not label[image[0]]:  # else the orbit itself, or one taken
                    found.append(image)
                    for i in image:
                        label[i] = len(found)
        return found, label

    def walk_set(self) -> list:
        """A small generating set to conjugate by: the Coxeter element
        c = s_1 s_2 ... s_r, then each simple reflection, in order, that
        the reflections chosen so far do not reach by conjugation under
        the set; the simple reflections themselves when that is no
        smaller (B2, G2, every I2(m)).  A0 has no generators."""
        simple = list(self.system.simple_reflections)
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
                           if p in self]
            start = end
        for z in center[1:]:
            if any(_compose(z, s) != _compose(s, z)
                   for s in system.simple_reflections):
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
    """g x g^-1 for g given as (its inverse, its table): g after x after
    g^-1."""
    inverse, table = g
    return inverse.translate(_table(x)).translate(table)


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


def _lengths(system, payload: bytes, elements: int) -> bytes:
    """The lengths of the root permutations joined in the payload,
    one byte each: per positive root r the column of images of r, 1 where
    negative, is added as one big integer, a byte per element (a length
    is at most 128, so no carry crosses a byte)."""
    n, positive = len(system.roots), system.positive
    negative = bytes(1 - p for p in positive).ljust(256, b"\x00")
    return sum(int.from_bytes(payload[r::n].translate(negative), "big")
               for r in range(n) if positive[r]).to_bytes(elements, "big")


def _bfs_key(group: Group, members) -> tuple:
    """((length, word), id, members) of the member the full BFS finds
    first: least length, then least lex-first reduced word of w^-1 (the
    BFS reads its frontier in id order and tries s_0, s_1, ... in turn).
    The least-length members descend together as _descend does, and only
    those taking the least letter go on."""
    system = group.system
    positive, simple = system.positive, system.simple_root_indices
    lengths = {i: _length(system, group.perm(i)) for i in members}
    least = min(lengths.values())
    alive = {i: group.perm(i) for i in members if lengths[i] == least}
    word = ()
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
    of check_enumerable.  The BFS layers of length 0..floor(N/2) are the
    lower coefficients of the Poincare polynomial, of degree N = |R|/2
    (a palindrome, so the whole of it is the true one), and _fold
    certifies the rest: the |W| elements are W."""
    check_enumerable(system.factors, budget, heavy, allow_e8)
    top, half = len(system.roots) // 2, len(system.roots) // 4
    # x.translate(_table(g)) is g after x; the BFS index is dropped at once
    lower, layers = closure([bytes(range(len(system.roots)))],
                            [_table(g) for g in system.simple_reflections],
                            bytes.translate, depth=half + 1)[::2]
    expected = _poincare(system.factors)
    if layers != expected[:half + 1] or len(expected) != top + 1:
        raise CertificateError(f"BFS layer sizes {layers} of {system.label} "
                               f"are not the first coefficients of the "
                               f"Poincare polynomial {expected} of its "
                               f"degrees, of degree {top}")
    return _fold(system, lower)


def _fold(system: RootSystem, lower) -> Group:
    """The group from its elements of length <= floor(N/2) in BFS order,
    a list the fold takes: each x is replaced in place by the element
    stored for its pair {x, w0 x}, the one sending beta to a positive
    root.  Below length N/2 each pair has one element there, so the
    stored elements keep their places; of length N/2 (N even) both do,
    and the second one met is not stored again.  The ids of the lower
    half are kept in BFS order.  Certified: no element of length N/2
    comes twice, and the stored elements are |W|/2, each sending beta to
    a positive root: as w0 is certified longest they are one of each
    pair, so W, and no element of the lower half repeats."""
    order = system_order(system.factors)
    if not system.roots:  # A0 and its sums: the identity is all of W
        return Group(system, list(lower), {lower[0]: 0}, array("I", [0]), None)
    top, half = len(system.roots) // 2, order // 2
    cut = len(lower) - (0 if top % 2 else _poincare(system.factors)[top // 2])
    w0, beta = _table(longest_element(system)), system.simple_root_indices[0]
    positive, on_beta = _table(system.positive), itemgetter(beta)
    sides = bytes(map(on_beta, lower)).translate(positive)  # 0: w0 x stored
    for j in compress(range(cut), map(not_, sides)):  # w0 x takes x's memory
        lower[j] = lower[j].translate(w0)
    middle = lower[cut:]
    stored = lower[:cut] + list(compress(middle, sides[cut:]))
    index = dict(zip(stored, count()))
    ids = array("I", map(add, range(cut), map((half, 0).__getitem__, sides)))
    kept = count(cut)
    try:
        ids.extend([next(kept) if s else index[x.translate(w0)] + half
                    for x, s in zip(middle, sides[cut:])])
    except KeyError:  # the w0 partner of an element of length N/2 is missing
        ids = None
    if (ids is None or len(set(middle)) != len(middle)
            or not len(index) == len(stored) == half
            or 0 in bytes(map(on_beta, stored)).translate(positive)):
        raise CertificateError(f"the w0 fold of {system.label} repeats or "
                               f"misses pairs {{w, w0 w}}: {len(index)} "
                               f"stored, |W|/2 = {half}")
    try:  # the simple reflections must lie in it: ids are looked up
        return Group(system, stored, index, ids, w0)
    except KeyError as exc:
        raise CertificateError(f"the w0 fold of {system.label} misses a "
                               "simple reflection") from exc


def longest_element(system: RootSystem) -> bytes:
    """The longest element w0 as a root permutation: w <- w s_k from the
    identity while some w(alpha_k) is positive, certified to send all
    |R|/2 positive roots to negative roots."""
    w0 = _descend(system, bytes(range(len(system.roots))), ascend=True)[0]
    if not system.positive.count(1) == _length(system, w0) == len(w0) // 2:
        raise CertificateError(f"{system.label}: the element taken for w0 "
                               "sends a positive root to a positive root")
    return w0


def _poincare(factors) -> list:
    """The number of elements of each length: the coefficients of the
    Poincare polynomial prod_i (1 + q + ... + q^(d_i - 1)) over the
    degrees d_i (Chevalley 1955)."""
    coefficients = [1]
    for d in (d for f in factors for d in f.degrees):
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
    payload, then the payload: the elements of length <= floor(N/2) in
    BFS order, which load_group folds as generate_group does.  As in every
    version, the generator ids are the BFS ids 1..r of the simple
    reflections.  The file is written under a temporary name and renamed
    into place."""
    # hashlib is imported only here and in load_group: it loads OpenSSL,
    # about 4 MB of resident memory that a run without the cache never needs
    import hashlib
    lower, label = group._lower, group.system.label.encode()
    ids = range(1, len(group.generator_ids) + 1)
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
        for k in range(0, len(lower), _CACHE_BLOCK):
            block = b"".join(map(group.perm, lower[k:k + _CACHE_BLOCK]))
            digest.update(block)
            fh.write(block)
        fh.seek(digest_at)
        fh.write(digest.digest())
    os.replace(tmp, path)


def load_group(path) -> Group:
    """Rebuild a group from a snapshot; the root system is rebuilt from its
    label.  The payload must match its digest, the group order, the
    length layers of the Poincare polynomial and the simple reflections,
    and it is folded and certified as generate_group folds its BFS."""
    import hashlib  # see save_group
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        magic, version, width, label_len = struct.unpack_from("<4sBBH", blob, 0)
        if magic != _CACHE_MAGIC:
            raise CacheFormatError(f"{path} is not a group cache file")
        if version not in (2, 3, CACHE_VERSION):
            raise CacheFormatError(f"{path} has cache version {version}, "
                                   "expected 2, 3 or 4")
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
    layers = _poincare(factors)[:n // 4 + 1]
    line = sum(layers)
    elements = line if version == CACHE_VERSION else order
    if len(blob) - offset != elements * n:
        raise CacheFormatError(
            f"{path}: payload has {len(blob) - offset} bytes, expected "
            f"{elements} x {n}")
    if hashlib.sha256(memoryview(blob)[offset:]).digest() != stored_digest:
        raise CacheFormatError(f"{path}: payload does not match its digest")
    system = system_from_spec(label)
    payload = blob[offset:offset + line * n]
    del blob  # the payload is a copy: free the file image before the cuts
    # the BFS starts at the identity, then s_1, ..., s_r (not stored when
    # N = 1: A1 has only its identity below the middle)
    start = b"".join((bytes(range(n)),) + system.simple_reflections)
    if (generator_ids != list(range(1, system.rank + 1))
            or payload[:len(start)] != start[:len(payload)]):
        raise CacheFormatError(f"{path}: the payload does not start with "
                               f"the identity and the simple reflections "
                               f"of {label}")
    if (payload.translate(None, bytes(range(n)))
            or _lengths(system, payload, line)
            != b"".join(bytes([k]) * c for k, c in enumerate(layers))):
        raise CacheFormatError(f"{path}: the stored elements are not the "
                               f"layers of length 0..{n // 4} of {label}")
    lower = ([x for x, in struct.iter_unpack(f"{n}s", payload)] if n
             else [b""])
    del payload
    try:
        return _fold(system, lower)
    except CertificateError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
