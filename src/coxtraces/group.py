"""Finite reflection groups, ranked through their stabilizer chain.

Elements are permutations of the root list, one byte per root (so at
most 256 roots), and composition is a single bytes.translate call.  No
element of W is stored.  The simple roots alpha_1..alpha_r are a base:
an element fixing them all fixes their span.  The pointwise stabilizer
of alpha_1..alpha_k is generated by the reflections it contains
(Steinberg 1964; Humphreys, Reflection Groups and Coxeter Groups, Thm
1.12), so level k of the chain is one closure of alpha_(k+1) under those
reflections, with a transversal, and no Schreier-Sims is needed.  Each
w is u_1 u_2 ... u_r, one transversal element per level; its id is the
mixed radix of their orbit positions, read off the r base images
w(alpha_i) (the identity is id 0), and an id gives back its element by
r compositions.  A rank is two dict lookups: the head levels precomposed,
keyed by the images they read, then the tail levels (of order at most
_TAIL_ORDER) keyed by all r.  Certified: the orbit lengths multiply to
|W| from the degrees.  Each level's group lies in the true stabilizer,
so a missing generator makes the product short.

Conjugacy classes are walked modulo the certified centre of W: z C is a
class for every central z, so once the walk has found C it takes each
z C whole, with no conjugation.  The centre is the product of the factor
centres, each {1, -1 on that factor} or trivial.  The walk keeps one
visited byte per element and the class it is walking; it returns each
class's representative and size, in the order of the full BFS by left
multiplication (_bfs_key), which nothing builds.

Roots are coordinate vectors in the simple basis over the system's ring
Z[2cos(pi/N)], so the matrix of an element on the span of the roots has
the images of the simple roots as its columns.  Whether a system is
enumerated at all is decided from the factor formulas (check_enumerable)
before any root is built: the fixed limits are 256 roots and N <= 128
(check_fixed_limits); past them the budget is the one size limit, and
W(E8) is refused whatever the budget, its counts coming from the closed
form.

A cache file holds no element either: the label, the orbit lengths and
their CRC-32 (zlib's, which loads no OpenSSL), checked against a chain
rebuilt from the label; that re-derives every field but the checksum.
"""

from __future__ import annotations

import os
import struct
from collections import namedtuple
from functools import reduce
from itertools import count
from math import prod

from .linalg import CertificateError, Matrix
from .roots import (BudgetExceededError, RootSystem, checked_ring_index,
                    closure, parse_system_spec, refuse_tuple_arithmetic,
                    system_from_spec, system_label, system_order)

DEFAULT_BUDGET = 10_000_000
_E8_ORDER = 696_729_600

_MAX_ROOTS = 256  # one byte per root
_IDENTITY = bytes(range(256))  # the identity as a translate table

# the chain's last levels are merged into one dict up to this order
_TAIL_ORDER = 5040

_CACHE_MAGIC = b"CXGC"
# the one format load_group reads: header, orbit lengths, CRC-32
CACHE_VERSION = 6


class GroupElement(namedtuple("GroupElement", "group index")):
    """One group element: a dense id inside its parent group."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = refuse_tuple_arithmetic
    __lt__ = __le__ = __gt__ = __ge__ = refuse_tuple_arithmetic

    def __repr__(self):
        return f"GroupElement({self.group.system.label}, {self.index})"


class Group:
    """A reflection group over a root system, held as its certified
    stabilizer chain (see the module notes)."""

    def __init__(self, system: RootSystem):
        self.system = system
        base, n = system.simple_root_indices, len(system.roots)
        self._base, self._identity = bytes(base), bytes(range(n))
        simple = system.simple_reflections
        reflections = closure(simple, [_walker(s) for s in simple],
                              _conjugate)[0]
        levels = [_transversal(self._identity, a,
                               _fixing(reflections, base[:k]))
                  for k, a in enumerate(base)]
        self.lengths = tuple(map(len, levels))
        self.order, expected = prod(self.lengths), system_order(system.factors)
        if self.order != expected:
            raise CertificateError(
                f"the stabilizer chain of {system.label} has orbit lengths "
                f"{list(self.lengths)}, whose product {self.order} is not "
                f"|W| = {expected} from the degrees")
        # for perm: the last level first, transversal elements as tables
        self._up = [[_table(u) for u in level] for level in reversed(levels)]
        self._cut = cut = next(k for k in range(len(levels) + 1)
                               if prod(self.lengths[k:]) <= _TAIL_ORDER)
        # for _ranks: the head levels precomposed, keyed by the base images
        # they read: u_1..u_k sends alpha_k where w does, for w = u_1..u_r
        head = [(b"", 0, self._identity)]
        for k, (a, level) in enumerate(zip(base[:cut], levels)):
            step = prod(self.lengths[k + 1:])
            head = [(key + bytes([p[u[a]]]), share + d * step, _compose(p, u))
                    for key, share, p in head for d, u in enumerate(level)]
        self._head = {key: (share, _table(_invert(p)))
                      for key, share, p in head}
        tail = [self._base]
        for tables in self._up[:len(levels) - cut]:
            tail = [x.translate(t) for t in tables for x in tail]
        self._tail = dict(zip(tail, count()))

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def perm(self, i: int) -> bytes:
        """Element i as a root permutation: u_1 u_2 ... u_r for the digits
        of i."""
        p = self._identity
        for tables in self._up:
            i, d = divmod(i, len(tables))
            p = p.translate(tables[d])
        if i:
            raise IndexError(f"no element {i} in {self.system.label}")
        return p

    def id_of(self, perm: bytes) -> int:
        """The id of an element of W, read off its base images alone (see
        _ranks); whether perm lies in W is `perm in group`."""
        return self._rank(self._base.translate(_table(perm)))

    def _rank(self, images: bytes) -> int:
        return next(self._ranks(images, 1))

    def _ranks(self, joined: bytes, size: int):
        """The ids of the elements of W whose base images are joined, r bytes
        each: the head's share plus the tail's id of the images under the
        head's (u_1..u_k)^-1.  Images of no element of W: CertificateError."""
        head, tail, cut, r = self._head, self._tail, self._cut, len(self._base)
        try:
            for j in range(size):
                images = joined[j * r:j * r + r]
                share, down = head[images[:cut]]
                yield share + tail[images.translate(down)]
        except KeyError:
            raise CertificateError(
                f"base images {list(images)} lie outside the orbits of the "
                f"stabilizer chain of {self.system.label}, so they are not "
                "those of an element of W") from None

    def __contains__(self, perm) -> bool:
        try:
            return self.perm(self.id_of(perm)) == perm
        except CertificateError:
            return False

    # -- matrices ------------------------------------------------------------

    def span_matrix_of(self, i: int) -> Matrix:
        """Matrix of element i on the span of the roots, in the simple basis:
        column b is the root that element i sends simple root b to.  This is
        the space on which eigenvalues are counted; for A-type factors it has
        no fixed all-ones direction, as required."""
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
        """Conjugacy classes, orbits under conjugation by the certified walk
        set, as (representative id, size) pairs: each represented by its
        member the full BFS finds first, in the order of those members."""
        walk = self.walk_set()
        _certify_walk_set(walk, self.system.simple_reflections)
        found = self._orbits([_walker(g) for g in walk], self.center()[1:])
        return [(rep, size) for _, rep, size in sorted(found)]

    def _orbits(self, walkers, shifts=()):
        """Orbits under the conjugations of _walker pairs, as (_bfs_key,
        representative id, size) triples.  Kept per element: a visited byte.
        The orbit being walked is one joined payload, its own queue; each
        shift is a central z, and z C is ranked off C's payload columns."""
        base, n, r = self._base, len(self.system.roots), len(self._base)
        head, tail, cut = self._head, self._tail, self._cut
        walkers = [(inverse, base.translate(_table(inverse)), table)
                   for inverse, table in walkers]
        moves = [_table(z) for z in shifts]
        visited, found, seed = bytearray(self.order), [], 0
        while (seed := visited.find(0, seed)) >= 0:
            visited[seed] = 1
            payload, at = bytearray(self.perm(seed)), 0
            try:  # _ranks, inline
                while at < len(payload):
                    x = payload[at:at + n].ljust(256, b"\x00")  # as a table
                    at += n
                    for inverse, base_inverse, table in walkers:  # g x g^-1
                        images = base_inverse.translate(x).translate(table)
                        share, down = head[images[:cut]]
                        i = share + tail[images.translate(down)]
                        if not visited[i]:
                            visited[i] = 1
                            payload += inverse.translate(x).translate(table)
            except KeyError:  # raised again, as _ranks words it
                self._rank(images)
            size = len(payload) // n if n else 1  # A0: one empty element
            key, k = _bfs_key(self.system, payload, size)
            found.append((key, self.id_of(payload[k * n:k * n + n]), size))
            if not moves:
                continue
            columns = bytearray(r * size)  # r base images a member of C
            for j, b in enumerate(base):
                columns[j::r] = payload[b::n]
            for table in moves:  # z x has the base images of x under z
                moved = bytes(columns).translate(table)
                if visited[self._rank(moved[:r])]:
                    continue
                for i in self._ranks(moved, size):
                    visited[i] = 1
                key, k = _bfs_key(self.system, payload, size, table)
                found.append((key, self._rank(moved[k * r:k * r + r]), size))
        return found

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
        system, start, identity = self.system, 0, self._identity
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
    """g x g^-1, g after x after g^-1, for g as (its inverse, its table)."""
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


def _lengths(system, payload: bytes, elements: int, left=_IDENTITY) -> bytes:
    """The lengths of the root permutations joined in the payload, each
    after the table left, a byte each: per positive root r the column of
    images of r, 1 where negative, is added as one big integer, a byte per
    element (a length is at most 128, so no carry crosses a byte)."""
    n, positive = len(system.roots), system.positive
    negative = left.translate(bytes(1 - p for p in positive) + bytes(256 - n))
    return sum(int.from_bytes(payload[r::n].translate(negative), "big")
               for r in range(n) if positive[r]).to_bytes(elements, "big")


def _bfs_key(system, payload, count: int, left=_IDENTITY) -> tuple:
    """((length, word), k) for the element k of the joined payload, each
    after the left factor, that the full BFS finds first: least length,
    then least lex-first reduced word of w^-1 (the BFS reads its frontier
    in id order and tries s_0, s_1, ... in turn).  The lengths come in
    bulk (_lengths); only the least-length elements are translated by the
    left factor, and they descend together as _descend does, each step
    reading the first simple root w sends to a negative root off two
    translates, and only those taking the least letter go on."""
    n, lengths = len(system.roots), _lengths(system, payload, count, left)
    base, positive = bytes(system.simple_root_indices), _table(system.positive)
    least = min(lengths)
    alive = [(k, payload[k * n:k * n + n].translate(left))
             for k, length in enumerate(lengths) if length == least]
    word = ()
    for _ in range(least):
        first = [base.translate(_table(w)).translate(positive).find(0)
                 for _, w in alive]
        k = min(first)
        alive = [(i, _compose(w, system.simple_reflections[k]))
                 for (i, w), f in zip(alive, first) if f == k]
        word += (k,)
    return (least, word), alive[0][0]


def _fixing(reflections, points) -> list:
    """The reflections fixing every point, as tables: s_g fixes alpha_i
    exactly when g is orthogonal to alpha_i."""
    return [_table(g) for g in reflections if all(g[p] == p for p in points)]


def _transversal(identity: bytes, point: int, tables) -> list:
    """For each root of the orbit of point under the group the tables
    generate, in BFS order (point first), an element of that group
    sending point to it: the identity, then g after the element of the
    root g was applied to."""
    across = {point: identity}

    def step(x, table):
        across.setdefault(table[x], across[x].translate(table))
        return table[x]
    return [across[x] for x in closure([point], tables, step)[0]]


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


def check_fixed_limits(factors) -> None:
    """Refuse, from the factor formulas alone, what no root model here can
    hold: more than 256 roots, or a coordinate ring Z[2cos(pi/N)] with
    N > 128."""
    n = sum(f.root_count for f in factors)
    if n > _MAX_ROOTS:
        raise BudgetExceededError(
            f"{system_label(factors)} has {n} roots; enumeration stores one "
            f"byte per root, so it is limited to {_MAX_ROOTS} roots")
    checked_ring_index(factors)


def check_enumerable(factors, budget: int = DEFAULT_BUDGET) -> None:
    """Refuse, from the factor formulas alone, what generate_group cannot
    or should not enumerate: past the fixed limits, W(E8) and anything
    above the budget."""
    check_fixed_limits(factors)
    label, estimate = system_label(factors), system_order(factors)
    if any(f.family == "E" and f.n == 8 for f in factors):
        raise BudgetExceededError(
            f"enumerating {label} means walking W(E8) "
            f"(order {_E8_ORDER:,}), which is beyond desk scale; counts for it "
            "come from the closed form")
    if estimate > budget:
        raise BudgetExceededError(
            f"estimated order {estimate:,} of {label} exceeds the "
            f"enumeration budget {budget:,} (W(E8), order {_E8_ORDER:,}, is "
            "the known system above the default budget)")


def generate_group(system: RootSystem, budget: int = DEFAULT_BUDGET) -> Group:
    """The reflection group of a root system, after the refusals of
    check_enumerable: its certified stabilizer chain, built in milliseconds."""
    check_enumerable(system.factors, budget)
    return Group(system)


def longest_element(system: RootSystem) -> bytes:
    """The longest element w0 as a root permutation: w <- w s_k from the
    identity while some w(alpha_k) is positive, certified to send all
    |R|/2 positive roots to negative roots."""
    w0 = _descend(system, bytes(range(len(system.roots))), ascend=True)[0]
    if not system.positive.count(1) == _length(system, w0) == len(w0) // 2:
        raise CertificateError(f"{system.label}: the element taken for w0 "
                               "sends a positive root to a positive root")
    return w0


def contains_minus_identity(system: RootSystem) -> bool:
    """Whether -identity (on the full ambient space) lies in W, with no
    enumeration: exactly when w0 = -1, as w0 is the one element sending
    every positive root to a negative root (Humphreys 1.8)."""
    # directions with no roots are fixed pointwise by every element
    return system.trivial_dims == 0 and longest_element(system) == system.negation


# -- on-disk cache ----------------------------------------------------------------


class CacheFormatError(ValueError):
    """The cache file is not readable as a group snapshot."""


def save_group(group: Group, path) -> None:
    """Write a versioned binary snapshot: the header, the orbit lengths of
    the stabilizer chain and the 4-byte zlib.crc32 of both, which
    load_group compares with a chain rebuilt from the label.  The file is
    written under a temporary name and renamed into place."""
    import zlib  # only the cache reads it, and the CLI has it loaded
    label, lengths = group.system.label.encode(), group.lengths
    head = (struct.pack("<4sBBH", _CACHE_MAGIC, CACHE_VERSION, 1, len(label))
            + label
            + struct.pack("<IQH", len(group.system.roots), group.order,
                          len(lengths))
            + struct.pack(f"<{len(lengths)}I", *lengths))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(head + struct.pack("<I", zlib.crc32(head)))
    os.replace(tmp, path)


def load_group(path) -> Group:
    """Rebuild a group from a snapshot: its chain is rebuilt from the label,
    and the file must match its checksum and the rebuilt orbit lengths.  A
    file of any other version is refused: warming it again takes
    milliseconds."""
    import zlib  # see save_group
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        magic, version, width, label_len = struct.unpack_from("<4sBBH", blob, 0)
        if magic != _CACHE_MAGIC:
            raise CacheFormatError(f"{path} is not a group cache file")
        if version != CACHE_VERSION:
            raise CacheFormatError(
                f"{path} has cache version {version}, expected "
                f"{CACHE_VERSION}; run `cache warm` again to rewrite it")
        if width != 1:
            raise CacheFormatError(
                f"{path} stores {width} bytes per root, expected 1")
        label, offset = blob[8:8 + label_len].decode(), 8 + label_len
        n, order, levels = struct.unpack_from("<IQH", blob, offset)
        offset += 14
        lengths = struct.unpack_from(f"<{levels}I", blob, offset)
        offset += 4 * levels
        factors = parse_system_spec(label)
    except CacheFormatError:
        raise
    except (struct.error, ValueError) as exc:  # truncated, or a bad label
        raise CacheFormatError(f"{path}: unreadable header ({exc})") from exc
    if n != sum(f.root_count for f in factors):
        raise CacheFormatError(
            f"{path}: root count {n} does not match the {label} model")
    try:  # the walk of a loaded group must fit as a fresh one would
        check_enumerable(factors)
    except BudgetExceededError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
    if order != system_order(factors):
        raise CacheFormatError(
            f"{path}: order {order} does not match |W({label})| = "
            f"{system_order(factors)}")
    if len(blob) != offset + 4:
        raise CacheFormatError(f"{path}: {len(blob) - offset} bytes follow "
                               "the header, expected its 4-byte CRC-32")
    if struct.pack("<I", zlib.crc32(blob[:offset])) != blob[offset:]:
        raise CacheFormatError(f"{path}: the file does not match its CRC-32")
    try:
        group = Group(system_from_spec(label))
    except CertificateError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc
    if lengths != group.lengths:
        raise CacheFormatError(f"{path}: orbit lengths {list(lengths)} are "
                               f"not those of {label}, {group.lengths}")
    return group
