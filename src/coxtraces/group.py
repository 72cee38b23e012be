"""Breadth-first generation of finite reflection groups.

Elements are stored as permutations of the root list, one byte per
root (so at most 256 roots), and composition is a single bytes.translate
call.  Ids are dense and follow discovery order, which is deterministic:
the BFS walks generators in simple-root order, layer by layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .field import ONE, ZERO
from .linalg import Matrix, solve_in_basis, vneg
from .roots import RootSystem, reflect, root_permutation, system_from_spec

DEFAULT_BUDGET = 10_000_000
# enumerations past this order (W(E7), D8, A9, ...) must be asked for explicitly
HEAVY_THRESHOLD = 1_000_000

_E8_ORDER = 696_729_600

_MAX_ROOTS = 256  # one byte per root

_CACHE_MAGIC = b"CXGC"
CACHE_VERSION = 1


class BudgetExceededError(RuntimeError):
    """Requested enumeration is larger than the configured budget allows."""


class MatrixFreeSystemError(RuntimeError):
    """The system has no vector model; use the closed-form counting path."""


@dataclass(frozen=True)
class GroupElement:
    """One group element: a dense id inside its parent group."""

    group: "Group"
    index: int

    @property
    def perm(self):
        return self.group.perms[self.index]

    def matrix(self) -> Matrix:
        return self.group.matrix_of(self.index)

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.group is other.group and self.index == other.index)

    def __hash__(self):
        return hash((id(self.group), self.index))

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
        self._basis_data = None

    # -- elements ---------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, 0)

    def element(self, i: int) -> GroupElement:
        if not 0 <= i < self.order:
            raise IndexError(f"element id {i} outside 0..{self.order - 1}")
        return GroupElement(self, i)

    @property
    def generators(self):
        return [GroupElement(self, i) for i in self.generator_ids]

    def __iter__(self):
        return (GroupElement(self, i) for i in range(self.order))

    def __len__(self):
        return self.order

    # -- composition --------------------------------------------------------

    def compose_ids(self, i: int, j: int) -> int:
        """Id of the product: element i applied after element j."""
        return self.index[_compose(self.perms[i], self.perms[j])]

    def inverse_id(self, i: int) -> int:
        return self.index[_invert(self.perms[i])]

    # -- matrices ------------------------------------------------------------

    def _basis(self):
        """Simple-root basis data: coordinates of every root, lazily."""
        if self._basis_data is None:
            system = self.system
            basis_ids = system.simple_root_indices
            basis = [system.roots[i] for i in basis_ids]
            coords = solve_in_basis(basis, list(system.roots)) if basis else []
            full_rank = len(basis) == system.dimension
            basis_inverse = None
            if full_rank and basis:
                # columns of the inverse of [basis as columns]
                unit = [tuple(ONE if k == i else ZERO for k in range(system.dimension))
                        for i in range(system.dimension)]
                basis_inverse = Matrix.from_columns(solve_in_basis(basis, unit))
            self._basis_data = (basis_ids, coords, full_rank, basis_inverse)
        return self._basis_data

    def span_matrix_of(self, i: int) -> Matrix:
        """Matrix of element i on the span of the roots, in the simple basis.

        This is the space on which eigenvalues are counted; for A-type
        factors it drops the fixed all-ones direction, as required.
        """
        basis_ids, coords, _, _ = self._basis()
        perm = self.perms[i]
        return Matrix.from_columns([coords[perm[b]] for b in basis_ids])

    def matrix_of(self, i: int) -> Matrix:
        """Exact matrix of element i: ambient when the roots span the
        whole space (then it is orthogonal and matches reflection_matrix),
        otherwise the span-basis matrix."""
        basis_ids, _, full_rank, basis_inverse = self._basis()
        if not full_rank:
            return self.span_matrix_of(i)
        perm = self.perms[i]
        image_cols = [self.system.roots[perm[b]] for b in basis_ids]
        return Matrix.from_columns(image_cols) * basis_inverse

    # -- distinguished elements ------------------------------------------------

    def reflection_id(self, root_index: int) -> int:
        """Id of the reflection in the given root."""
        perm = root_permutation(self.system, self.system.roots[root_index])
        return self.index[perm]

    def class_orbits(self):
        """Conjugacy classes as id lists: orbits under conjugation by the
        generators, which generate the group and are their own inverses."""
        gens = [(self.perms[i], _table(self.perms[i]))
                for i in self.generator_ids]
        return orbits(self.perms, self.index, gens, _conjugate)


# -- the one closure and orbit walk, for every element type of the package ---


def closure(identity, gens, act):
    """BFS closure of {identity} under x -> act(x, g) for g in gens:
    the elements in discovery order and the element -> id map."""
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    fresh.append(y)
        frontier = fresh
    return elements, index


def orbits(elements, index, gens, act):
    """Orbits of the bijections x -> act(x, g), as id lists ordered by
    least id, each starting with its least id."""
    visited = bytearray(len(elements))
    out = []
    for seed in range(len(elements)):
        if visited[seed]:
            continue
        visited[seed] = 1
        members = [seed]
        stack = [seed]
        while stack:
            x = elements[stack.pop()]
            for g in gens:
                y = index[act(x, g)]
                if not visited[y]:
                    visited[y] = 1
                    members.append(y)
                    stack.append(y)
        out.append(members)
    return out


def _table(p: bytes) -> bytes:
    """p as a translate table: q.translate(_table(p)) is p after q."""
    return p.ljust(256, b"\x00")


def _compose(p: bytes, q: bytes) -> bytes:
    """p after q, i.e. (p o q)[i] = p[q[i]]."""
    return q.translate(_table(p))


def _invert(p: bytes) -> bytes:
    # the table sending p[i] to i starts with the inverse of p
    return bytes.maketrans(p, bytes(range(len(p))))[:len(p)]


def _conjugate(x: bytes, g) -> bytes:
    """g x g for g = (perm, its table), a reflection."""
    perm, table = g
    return perm.translate(x.translate(table).ljust(256, b"\x00"))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.group is not h.group:
        raise ValueError("elements of different groups")
    return GroupElement(g.group, g.group.compose_ids(g.index, h.index))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.group, g.group.inverse_id(g.index))


def to_matrix(g: GroupElement) -> Matrix:
    return g.matrix()


def generate_group(system: RootSystem, budget: int = DEFAULT_BUDGET,
                   heavy: bool = False, allow_e8: bool = False) -> Group:
    """Enumerate the reflection group of a vector-backed root system.

    Refuses systems with more than 256 roots, matrix-free systems,
    anything above the budget, and — unless explicitly unlocked — W(E8)
    and orders past the heavy threshold.
    """
    n = len(system.roots)
    if n > _MAX_ROOTS:
        raise BudgetExceededError(
            f"{system.label} has {n} roots; enumeration stores one byte per "
            f"root, so it is limited to {_MAX_ROOTS} roots")
    if system.matrix_free:
        free = [f.label for f in system.factors if not f.has_matrix_model]
        raise MatrixFreeSystemError(
            f"{system.label} has no exact vector model (factors {', '.join(free)}); "
            "use the closed-form counting path")
    estimate = system.known_order
    if any(f.family == "E" and f.n == 8 for f in system.factors) and not allow_e8:
        raise BudgetExceededError(
            f"enumerating {system.label} means walking W(E8) "
            f"(order {_E8_ORDER:,}), which is beyond desk scale; counts for it "
            "come from the closed form")
    if estimate > budget:
        raise BudgetExceededError(
            f"estimated order {estimate:,} of {system.label} exceeds the "
            f"enumeration budget {budget:,} (W(E8), order {_E8_ORDER:,}, is "
            "the known system above the default budget)")
    if estimate > HEAVY_THRESHOLD and not heavy:
        raise BudgetExceededError(
            f"estimated order {estimate:,} of {system.label} exceeds "
            f"{HEAVY_THRESHOLD:,}; pass heavy=True (--heavy) to run it")

    gen_perms = [root_permutation(system, system.roots[i])
                 for i in system.simple_root_indices]
    # x.translate(_table(g)) is g after x
    perms, index = closure(bytes(range(n)), [_table(g) for g in gen_perms],
                           bytes.translate)
    if len(perms) != estimate:
        raise RuntimeError(
            f"generated {len(perms)} elements for {system.label}, "
            f"expected {estimate}")
    generator_ids = [index[g] for g in gen_perms]
    return Group(system, perms, index, generator_ids)


def contains_minus_identity(group: Group) -> bool:
    """Whether -identity (on the full ambient space) lies in the group."""
    system = group.system
    if system.trivial_dims > 0:
        # directions with no roots are fixed pointwise by every element
        return False
    neg = bytes(system.root_index[vneg(r)] for r in system.roots)
    return neg in group.index


# -- shared in-process cache ----------------------------------------------------


_SHARED: dict = {}


def shared_group(system: RootSystem, budget: int = DEFAULT_BUDGET,
                 heavy: bool = False) -> Group:
    """Memoized generate_group keyed by the system label."""
    key = system.label
    group = _SHARED.get(key)
    if group is None:
        group = generate_group(system, budget=budget, heavy=heavy)
        _SHARED[key] = group
    return group


# -- on-disk cache ----------------------------------------------------------------


class CacheFormatError(ValueError):
    """The cache file is not readable as a group snapshot."""


def save_group(group: Group, path) -> None:
    """Write a versioned binary snapshot: header plus byte permutations."""
    n = len(group.system.roots)
    label = group.system.label.encode()
    # the header keeps its width byte, always 1
    head = struct.pack("<4sBBH", _CACHE_MAGIC, CACHE_VERSION, 1, len(label))
    head += label
    head += struct.pack("<IQH", n, group.order, len(group.generator_ids))
    head += struct.pack(f"<{len(group.generator_ids)}I", *group.generator_ids)
    with open(path, "wb") as fh:
        fh.write(head)
        for p in group.perms:
            fh.write(p)


def load_group(path) -> Group:
    """Rebuild a group from a snapshot; the root system is rebuilt from its label."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        magic, version, width, label_len = struct.unpack_from("<4sBBH", blob, 0)
        if magic != _CACHE_MAGIC:
            raise CacheFormatError(f"{path} is not a group cache file")
        if version != CACHE_VERSION:
            raise CacheFormatError(
                f"{path} has cache version {version}, expected {CACHE_VERSION}")
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
        system = system_from_spec(label)
        if len(system.roots) != n:
            raise CacheFormatError(
                f"{path}: root count {n} does not match the {label} model")
        if order != system.known_order:
            raise CacheFormatError(
                f"{path}: order {order} does not match |W({label})| = "
                f"{system.known_order}")
        if len(blob) - offset != order * n:
            raise CacheFormatError(
                f"{path}: payload has {len(blob) - offset} bytes, expected "
                f"{order} x {n}")
        if any(g >= order for g in generator_ids):
            raise CacheFormatError(f"{path}: generator id out of range")
        perms = [blob[offset + k * n:offset + (k + 1) * n]
                 for k in range(order)]
    except struct.error as exc:
        raise CacheFormatError(f"{path}: truncated header ({exc})") from exc
    index = {p: i for i, p in enumerate(perms)}
    return Group(system, perms, index, generator_ids)
