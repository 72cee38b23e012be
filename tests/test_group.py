"""Group generation, composition, matrices, and the on-disk cache."""

from __future__ import annotations

import random
import struct
import tracemalloc
import zlib
from math import prod

import pytest

from coxtraces import group as group_module
from coxtraces import roots
from coxtraces.classes import conjugacy_classes
from coxtraces.group import (BudgetExceededError, CacheFormatError, Group,
                             GroupElement, _compose, _conjugate, _invert,
                             _descend, _table, _walker, check_enumerable,
                             contains_minus_identity, generate_group,
                             load_group, longest_element, save_group)
from coxtraces.linalg import CertificateError, Matrix
from coxtraces.roots import (closure, parse_system_spec, system_from_spec,
                             system_order)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g applied after h."""
    assert g.group is h.group
    group = g.group
    return GroupElement(group, group.id_of(_compose(group.perm(g.index),
                                                    group.perm(h.index))))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.group, g.group.id_of(_invert(g.group.perm(g.index))))


def elements(group):
    return [group.perm(i) for i in range(group.order)]


def generators(group):
    return [GroupElement(group, group.id_of(s))
            for s in group.system.simple_reflections]


KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "D4": 192, "D5": 1920,
    "F4": 1152, "G2": 12, "H3": 120,
    "I2(3)": 6, "I2(4)": 8, "I2(5)": 10, "I2(6)": 12, "I2(10)": 20,
    "I2(7)": 14, "I2(8)": 16, "I2(12)": 24, "H3+I2(7)": 1680,
}


def test_generated_orders_match_the_product_formula():
    for label, expected in KNOWN_ORDERS.items():
        group = generate_group(system_from_spec(label))
        assert group.order == expected, label


def _full_bfs(system):
    """The full BFS by left multiplication, which numbered the elements
    before the w0 mirror: elements, index and layer sizes."""
    gens = [_table(g) for g in system.simple_reflections]
    return closure([bytes(range(len(system.roots)))], gens, bytes.translate)


def test_bfs_layers_are_the_lengths():
    # layer k holds the elements of length k: for A3 = S4 these are the
    # permutations of 4 letters by number of inversions
    _, _, layers = _full_bfs(system_from_spec("A3"))
    assert layers == [1, 3, 5, 6, 5, 3, 1]


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2", "H3", "A2+A1",
                                   "E6"])
def test_full_bfs_orders_each_layer_by_the_lex_first_word(label):
    # the order the class report keeps: within a length the full BFS
    # finds the elements sorted by the lex-first reduced word of w^-1
    system = system_from_spec(label)
    perms, _, layers = _full_bfs(system)
    words = [_descend(system, w)[1] for w in perms]
    start = 0
    for length, size in enumerate(layers):
        layer = words[start:start + size]
        assert all(len(w) == length for w in layer), (label, length)
        assert layer == sorted(layer), (label, length)
        start += size


def _lower_half(system):
    """The elements of length <= floor(N/2) in full BFS order."""
    full, _, layers = _full_bfs(system)
    return full[:sum(layers[:len(system.roots) // 4 + 1])]


@pytest.mark.parametrize("label", ["A0", "A1", "A3", "B3", "H3", "A2+A1",
                                   "E6", "B5+A3", "A1+H4", "I2(127)"])
def test_mirror_gives_the_full_bfs_set_with_the_lower_ids(label):
    # the chain's elements are the full BFS set, its ids are their ranks
    # (the identity is 0), and the lower half gives the rest of W by its
    # w0 mirror (Bjorner-Brenti 2.3.2)
    system = system_from_spec(label)
    group = generate_group(system)
    full = _full_bfs(system)[0]
    assert sorted(elements(group)) == sorted(full)
    assert [group.id_of(p) for p in elements(group)] == list(range(group.order))
    assert group.perm(0) == bytes(range(len(system.roots)))
    lower = _lower_half(system)
    w0 = _table(longest_element(system)) if system.roots else None
    assert {x.translate(w0) for x in lower} | set(lower) == set(full)


_LONGEST_FACTORS = ([f"A{n}" for n in range(1, 9)]
                    + [f"B{n}" for n in range(2, 9)]
                    + [f"D{n}" for n in range(4, 9)]
                    + ["E6", "E7", "E8", "F4", "G2", "H3", "H4"]
                    + [f"I2({m})" for m in range(3, 13)])


@pytest.mark.parametrize("label", _LONGEST_FACTORS)
def test_longest_element_is_minus_one_exactly_when_the_degrees_say_so(
        label, monkeypatch):
    # w0 takes no enumeration of the group: the group's BFS is barred
    def refuse(*args, **kwargs):
        raise AssertionError("the group was enumerated")
    monkeypatch.setattr(group_module, "closure", refuse)
    system = system_from_spec(label)
    w0 = longest_element(system)
    ring, n = system.ring, len(system.roots)
    negation = bytes(system.root_index[tuple(map(ring.neg, r))]
                     for r in system.roots)
    assert ((w0 == negation)
            == roots.parse_factor(label).contains_minus_identity), label
    positive = system.positive
    flipped = [r for r in range(n) if positive[r] and not positive[w0[r]]]
    assert len(flipped) == n // 2 == positive.count(1)


@pytest.mark.parametrize("label", ["A3", "B3", "D5", "E6", "H3", "A2+A1"])
def test_a_level_missing_a_stabilizer_reflection_fails_the_orbit_product(
        label, monkeypatch):
    # the deepest level with generators, one reflection short: its orbit
    # shrinks, so the orbit lengths multiply to less than |W|
    system = system_from_spec(label)
    fixing, found = group_module._fixing, []
    monkeypatch.setattr(group_module, "_fixing", lambda reflections, points:
                        found.append(fixing(reflections, points)) or found[-1])
    generate_group(system)
    deepest = max(k for k, tables in enumerate(found) if tables)
    monkeypatch.setattr(group_module, "_fixing", lambda reflections, points:
                        fixing(reflections, points)[len(points) == deepest:])
    with pytest.raises(CertificateError, match="orbit lengths"):
        generate_group(system)


@pytest.mark.parametrize("label", ["B3", "H3", "B2+I2(5)+A0", "E6", "A8"])
def test_a_forged_base_image_outside_an_orbit_is_refused(label):
    # a permutation fixing alpha_1..alpha_k that sends alpha_(k+1) outside
    # its level's orbit is refused, never read as orbit position 0
    system = system_from_spec(label)
    group = generate_group(system)
    base, n = system.simple_root_indices, len(system.roots)
    forged_any = False
    for k, a in enumerate(base):
        # the level's transversal elements are the ids d * stride
        stride = prod(group.lengths[k + 1:])
        orbit = {group.perm(d * stride)[a] for d in range(group.lengths[k])}
        assert len(orbit) == group.lengths[k]
        for root in set(range(n)) - orbit - set(base[:k]):
            forged = bytearray(range(n))
            forged[a], forged[root] = root, a
            with pytest.raises(CertificateError, match="outside the orbits"):
                group.id_of(bytes(forged))
            assert bytes(forged) not in group
            forged_any = True
    assert forged_any


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "H3", "A2+A1", "E6"])
def test_an_element_that_is_not_longest_fails_the_w0_certificate(
        label, monkeypatch):
    system = system_from_spec(label)
    w0 = longest_element(system)
    for w in (bytes(range(len(system.roots))),
              _compose(w0, system.simple_reflections[0]),
              _compose(system.simple_reflections[-1], w0)):
        monkeypatch.setattr(group_module, "_descend",
                            lambda *args, w=w, **kwargs: (w, ()))
        with pytest.raises(CertificateError, match="positive root to a positive root"):
            longest_element(system)


def test_a_wrong_degree_fails_the_orbit_product_certificate(monkeypatch):
    # degrees of E6 with the right |R| = 72 but |W| = 55296: the chain
    # finds 51840 elements; degrees with the right |W| too pass the chain,
    # and the fixed-dimension certificate of the classes refuses them
    degrees, edges = roots._EXCEPTIONAL[("E", 6)]
    for wrong, group_ok in (((2, 6, 6, 8, 8, 12), False),
                            ((2, 6, 6, 6, 10, 12), True)):
        assert sum(wrong) == sum(degrees) and wrong != degrees
        monkeypatch.setitem(roots._EXCEPTIONAL, ("E", 6), (wrong, edges))
        system = system_from_spec("E6")
        assert len(system.roots) == 72
        if group_ok:
            assert system_order(system.factors) == 51840
            group = generate_group(system)
            with pytest.raises(CertificateError, match="degree product"):
                conjugacy_classes(group)
        else:
            with pytest.raises(CertificateError, match="orbit lengths"):
                generate_group(system)


def test_composite_group_order():
    group = generate_group(system_from_spec("A1+G2"))
    assert group.order == 24


def test_every_dihedral_factor_is_enumerated():
    # factors without a Cartan matrix over Z[phi] once had no model at all
    assert generate_group(system_from_spec("I2(7)")).order == 14
    assert generate_group(system_from_spec("B2+I2(11)")).order == 8 * 22


def test_wide_coordinate_rings_are_refused():
    # 54 roots and |W| = 5544, but coordinates in Z[2cos(pi/693)], whose
    # degree is 180; the refusal comes before any root is built
    with pytest.raises(BudgetExceededError, match=r"2cos\(pi/693\)"):
        generate_group(system_from_spec("I2(7)+I2(9)+I2(11)"))


def test_library_entry_points_refuse_wide_rings_before_building_one(
        monkeypatch):
    # Z[2cos(pi/9009)] has degree 2160: building the ring alone once took
    # about 25 s, so the refusal must come before coordinate_ring
    def refuse(n):
        raise AssertionError(f"coordinate_ring({n}) called")
    monkeypatch.setattr(roots, "coordinate_ring", refuse)
    with pytest.raises(BudgetExceededError, match=r"2cos\(pi/9009\)"):
        system_from_spec("I2(7)+I2(9)+I2(11)+I2(13)")
    with pytest.raises(BudgetExceededError, match="ring limit"):
        roots.build_irreducible(roots.parse_factor("I2(129)"))


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        generate_group(system_from_spec("B3"), budget=10)
    # 258 roots do not fit the one-byte-per-root element format; the
    # refusal comes before any enumeration, whatever the budget
    with pytest.raises(BudgetExceededError, match="258 roots"):
        generate_group(system_from_spec("H4+B3+H4"), budget=10 ** 11)


def test_e8_is_refused_even_with_a_budget():
    system = system_from_spec("E8")
    with pytest.raises(BudgetExceededError):
        generate_group(system, budget=10 ** 10)


def test_the_default_budget_admits_a8_plus_a3_without_enumerating(
        monkeypatch):
    # 8,709,120 elements: past a million, under the budget, which is the one
    # size limit; the verdict reads the factor formulas alone
    def refuse(*args, **kwargs):
        raise AssertionError("a root model or a group was built")
    for name in ("build_irreducible", "coordinate_ring", "closure"):
        monkeypatch.setattr(roots, name, refuse)
    monkeypatch.setattr(group_module, "closure", refuse)
    factors = parse_system_spec("A8+A3")
    assert system_order(factors) == 8_709_120
    assert check_enumerable(factors) is None


def test_identity_and_inverse_axioms():
    group = generate_group(system_from_spec("B3"))
    e = group.identity
    rng = random.Random(11)
    ids = [rng.randrange(group.order) for _ in range(40)]
    for i in ids:
        g = GroupElement(group, i)
        assert compose(g, e) == g
        assert compose(e, g) == g
        assert compose(g, inverse(g)) == e
        assert compose(inverse(g), g) == e


def test_composition_associates():
    group = generate_group(system_from_spec("A3"))
    rng = random.Random(5)
    for _ in range(30):
        g, h, k = (GroupElement(group, rng.randrange(group.order))
                   for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_generators_are_involutive_reflections():
    group = generate_group(system_from_spec("H3"))
    ring = group.system.ring
    for g in generators(group):
        assert compose(g, g) == group.identity
        m = group.span_matrix_of(g.index)
        assert m.det() == ring.integer(-1)
        assert m * m == Matrix.identity(3, ring)


def test_matrices_form_a_representation():
    group = generate_group(system_from_spec("B3"))
    rng = random.Random(3)
    for _ in range(25):
        i = rng.randrange(group.order)
        j = rng.randrange(group.order)
        left = group.span_matrix_of(
            compose(GroupElement(group, i), GroupElement(group, j)).index)
        right = group.span_matrix_of(i) * group.span_matrix_of(j)
        assert left == right


def test_generator_matrices_equal_literal_reflections():
    # s_k(alpha_j) = alpha_j - a_kj alpha_k: the identity with row k
    # replaced by e_k - (row k of the Cartan matrix)
    for label in ("B3", "H3", "I2(10)", "I2(7)", "H3+I2(8)"):
        system = system_from_spec(label)
        group, ring = generate_group(system), system.ring
        identity = Matrix.identity(system.rank, ring).rows
        for k, g in enumerate(generators(group)):
            rows = list(identity)
            rows[k] = tuple(map(ring.sub, identity[k], system.cartan[k]))
            assert group.span_matrix_of(g.index) == Matrix(rows, ring), \
                (label, k)


def test_matrices_preserve_the_gram_form():
    # a symmetric Cartan matrix is a multiple of the Gram matrix of the
    # simple roots, so every element preserves it
    for label in ("A2", "H3", "I2(5)", "I2(7)", "I2(9)+A1"):
        system = system_from_spec(label)
        group = generate_group(system)
        form = Matrix(system.cartan, system.ring)
        for i in range(group.order):
            m = group.span_matrix_of(i)
            transpose = Matrix.from_columns(m.rows, system.ring)
            assert transpose * form * m == form, label


def test_minus_identity_detection_matches_classification():
    # the w0 test against the degrees and against membership of -1 in the
    # enumerated group
    for label in ("A1", "A2", "B2", "B3", "D4", "D5", "G2", "F4", "H3",
                  "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(15)+I2(12)",
                  "A1+A0"):
        system = system_from_spec(label)
        group = generate_group(system)
        expected = all(f.contains_minus_identity for f in system.factors)
        assert contains_minus_identity(system) == expected, label
        in_group = system.trivial_dims == 0 and system.negation in group
        assert in_group == expected, label


def test_minus_identity_gone_once_a_fixed_line_exists():
    system = system_from_spec("A1+A0")
    assert not contains_minus_identity(system)
    # the roots alone cannot see the fixed line: -1 on them is in W
    assert system.negation in generate_group(system)


def test_determinant_tracks_word_parity():
    group = generate_group(system_from_spec("G2"))
    ring = group.system.ring
    # generators have det -1, so any product of k of them has det (-1)^k
    a, b = generators(group)
    g = compose(a, b)
    assert group.span_matrix_of(g.index).det() == ring.one
    assert group.span_matrix_of(compose(g, a).index).det() == ring.integer(-1)


def _orbits_by_closure(group, walk):
    """Conjugation orbits under the walk set, as id sets: the closure of
    each element that no earlier orbit holds."""
    seen, found = set(), []
    for i in range(group.order):
        if i not in seen:
            orbit = {group.id_of(y) for y in closure(
                [group.perm(i)], [_walker(g) for g in walk], _conjugate)[0]}
            seen |= orbit
            found.append(orbit)
    return found


def _simple_reflection_walk(group):
    """The earlier class walk: conjugation by every simple reflection."""
    return _orbits_by_closure(group, group.system.simple_reflections)


def _assert_walk_is_the_oracle(group, walk, oracle):
    """The walk's (representative, size) pairs name each orbit of the
    oracle once, with its size; each is represented by its member the
    full BFS finds first, and they come in the order of those members.
    No walk builds that BFS, so it is the oracle here."""
    orbit_of = {i: k for k, m in enumerate(oracle) for i in m}
    orbits = [oracle[orbit_of[rep]] for rep, _ in walk]
    assert sorted(orbit_of[rep] for rep, _ in walk) == list(range(len(oracle)))
    assert [size for _, size in walk] == list(map(len, orbits))
    assert sum(size for _, size in walk) == group.order
    full_index = [0] * group.order  # by id
    for perm, k in _full_bfs(group.system)[1].items():
        full_index[group.id_of(perm)] = k
    least = [min(map(full_index.__getitem__, m)) for m in orbits]
    assert [full_index[rep] for rep, _ in walk] == least
    assert least == sorted(least)


@pytest.mark.parametrize("label", ["A0", "A0+A3", "B2", "G2", "I2(8)",
                                   "I2(127)", "B5+A3", "A1+H4", "E6", "F4",
                                   "H3+I2(7)", "D6", "A1+B5", "A1+A1+A1",
                                   "B2+I2(12)", "I2(9)+I2(12)"])
def test_class_walk_equals_the_simple_reflection_walk(label):
    group = generate_group(system_from_spec(label))
    _assert_walk_is_the_oracle(group, group.class_orbits(),
                               _simple_reflection_walk(group))


@pytest.mark.parametrize("label", ["B4", "H3", "H4", "E6", "D6", "F4",
                                   "A5+B2", "H3+I2(7)", "B5+A3", "I2(8)",
                                   "G2+A1", "A1+H4", "A8", "D7"])
def test_classes_come_in_the_full_bfs_order(label):
    group = generate_group(system_from_spec(label))
    _assert_walk_is_the_oracle(group, group.class_orbits(),
                               _orbits_by_closure(group, group.walk_set()))


@pytest.mark.parametrize("label", ["A8", "D5+I2(3)", "D6", "A1+B5",
                                   "A1+A1+A1", "B2+I2(12)", "I2(9)+I2(12)",
                                   "A1+H4", "B2+I2(5)+A0", "A0"])
def test_center_has_one_sign_per_factor_with_minus_one(label):
    group = generate_group(system_from_spec(label))
    center = group.center()
    with_minus_one = sum(f.contains_minus_identity for f in group.system.factors)
    assert len(center) == len(set(center)) == 2 ** with_minus_one, label
    assert center[0] == group.perm(0)
    for z in center:
        assert z in group
        assert all(_compose(z, x) == _compose(x, z)
                   for x in map(group.perm, range(min(50, group.order))))


def test_a_non_central_shift_fails_the_centre_certificate(monkeypatch):
    # a simple reflection of B3 lies in W but is not central
    group = generate_group(system_from_spec("B3"))
    s0 = group.system.simple_reflections[0]
    monkeypatch.setattr(roots.RootSystem, "negation", property(
        lambda self: s0))
    with pytest.raises(CertificateError, match="does not commute"):
        group.center()
    with pytest.raises(CertificateError, match="does not commute"):
        group.class_orbits()


def test_the_class_walk_keeps_a_visited_byte_per_element():
    # a byte per element and the largest class's payload, n bytes a member,
    # with slack; a 4-byte label and a member id per element do not fit
    group = generate_group(system_from_spec("A7"))
    tracemalloc.start()
    try:
        classes = conjugacy_classes(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, largest = len(group.system.roots), max(c.size for c in classes)
    assert peak < 2 * (group.order + n * largest), (peak, largest)


def test_a_walker_outside_w_is_refused_by_the_walk():
    # a permutation swapping a simple root with its negative is no element
    # of W: the conjugates it makes have base images outside the chain's
    # orbits, which the walk's ranking reports as a CertificateError
    group = generate_group(system_from_spec("A3"))
    a = group.system.simple_root_indices[1]
    swap = bytearray(group.perm(0))
    swap[a], swap[group.system.negation[a]] = group.system.negation[a], a
    assert bytes(swap) not in group
    with pytest.raises(CertificateError, match="outside the orbits"):
        group._orbits([_walker(bytes(swap))])


def _descend_key(system, elements):
    """The ranking before the pruned descent: a length and a full
    _descend per least-length element, and that element's place."""
    lengths = [group_module._length(system, w) for w in elements]
    least = min(lengths)
    return min(((least, _descend(system, w)[1]), k)
               for k, (w, length) in enumerate(zip(elements, lengths))
               if length == least)


@pytest.mark.parametrize("label", ["D7", "A1+H4", "F4+I2(3)"])
def test_pruned_bfs_key_is_the_per_member_descent_key(label):
    group = generate_group(system_from_spec(label))
    walk = group.walk_set()
    orbit_of = {i: m for m in _orbits_by_closure(group, walk) for i in m}
    for key, rep, size in group._orbits([_walker(g) for g in walk]):
        members = orbit_of[rep]
        assert len(members) == size
        # the representative last
        elements = [group.perm(i) for i in members if i != rep]
        elements.append(group.perm(rep))
        payload = b"".join(elements)
        assert group_module._bfs_key(group.system, payload, size) \
            == _descend_key(group.system, elements) \
            == (key, size - 1), (label, rep)
        for z in group.center()[1:]:  # z C, read with z as a left factor
            shifted = [_compose(z, w) for w in elements]
            assert group_module._bfs_key(group.system, payload, size,
                                         _table(z)) \
                == _descend_key(group.system, shifted), (label, rep)


@pytest.mark.parametrize("label, size", [("A0", 0), ("A1", 1), ("B2", 2),
                                         ("G2", 2), ("I2(9)", 2), ("H3", 2),
                                         ("D4", 3), ("F4", 3), ("E6", 2),
                                         ("B5+A3", 4)])
def test_walk_set_sizes(label, size):
    group = generate_group(system_from_spec(label))
    walk = group.walk_set()
    assert len(walk) == size
    if size < group.system.rank:
        # the Coxeter element s_1 s_2 ... s_r, then simple reflections
        simple = group.system.simple_reflections
        c = group.identity
        for g in generators(group):
            c = compose(c, g)
        assert walk[0] == group.perm(c.index)
        assert all(g in simple for g in walk[1:])


def test_conjugate_takes_the_inverse_and_the_table():
    group = generate_group(system_from_spec("A3"))
    rng = random.Random(7)
    for _ in range(20):
        x, g = (GroupElement(group, rng.randrange(group.order))
                for _ in range(2))
        expected = compose(compose(g, x), inverse(g))
        moved = _conjugate(group.perm(x.index), _walker(group.perm(g.index)))
        assert group.id_of(moved) == expected.index


def test_walk_set_that_misses_a_reflection_class_is_refused(monkeypatch):
    # in B4 the short and the long reflections are two classes; without a
    # long simple reflection the set reaches no long one, and the walk
    # must refuse rather than print finer classes
    group = generate_group(system_from_spec("B4"))
    walk = group.walk_set()
    long_root = group.system.simple_reflections[1]
    assert long_root in walk
    short_only = [g for g in walk if g != long_root]
    finer = _orbits_by_closure(group, short_only)
    assert len(finer) > len(group.class_orbits())
    monkeypatch.setattr(Group, "walk_set", lambda self: short_only)
    with pytest.raises(RuntimeError, match="does not reach"):
        group.class_orbits()


@pytest.mark.parametrize("label", ["A0", "A3", "B3", "H3", "E6", "A1+A0"])
def test_bulk_lengths_are_the_lengths(label):
    # one byte per element, column by column of positive roots: what
    # _bfs_key reads the lengths with
    system = system_from_spec(label)
    perms = _full_bfs(system)[0]
    assert group_module._lengths(system, b"".join(perms), len(perms)) == \
        bytes(group_module._length(system, p) for p in perms)


def test_cache_roundtrip(tmp_path):
    group = generate_group(system_from_spec("B2+A1"))
    path = tmp_path / "b2a1.grp"
    save_group(group, path)
    loaded = load_group(path)
    assert loaded.order == group.order
    assert loaded.system.label == "B2+A1"
    assert elements(loaded) == elements(group)
    assert loaded.lengths == group.lengths


@pytest.mark.parametrize("label", ["A0", "A0+A0", "A1", "A1+A0", "A1+A1"])
def test_cache_roundtrip_of_the_smallest_groups(tmp_path, label):
    group = generate_group(system_from_spec(label))
    save_group(group, tmp_path / "g.grp")
    loaded = load_group(tmp_path / "g.grp")
    assert elements(loaded) == elements(group)
    assert loaded.lengths == group.lengths


def test_a_fresh_cache_file_is_the_header_the_orbit_lengths_and_a_digest(
        tmp_path):
    # the header of every version, the orbit lengths of the stabilizer
    # chain where the generator ids were, and the CRC-32 of both: A7
    # (40,320 elements, 2.3 MB in version 2) in 56 bytes
    group = generate_group(system_from_spec("A7"))
    assert group.lengths == (56, 6, 5, 4, 3, 2, 1)
    label, lengths = b"A7", group.lengths
    head = (struct.pack("<4sBBH", b"CXGC", 6, 1, len(label)) + label
            + struct.pack("<IQH", 56, group.order, len(lengths))
            + struct.pack(f"<{len(lengths)}I", *lengths))
    save_group(group, tmp_path / "a7.grp")
    raw = (tmp_path / "a7.grp").read_bytes()
    assert raw == head + struct.pack("<I", zlib.crc32(head))
    assert len(raw) == 56


def test_cache_rejects_corruption(tmp_path):
    group = generate_group(system_from_spec("A2"))
    path = tmp_path / "a2.grp"
    save_group(group, path)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CacheFormatError):
        load_group(path)
    path.write_bytes(raw[:20])
    with pytest.raises(CacheFormatError):
        load_group(path)
    # byte 5 is the width of a stored root index, which is always 1
    path.write_bytes(raw[:5] + b"\x02" + raw[6:])
    with pytest.raises(CacheFormatError):
        load_group(path)
    # after the 8-byte header and the label "A2": root count (4 bytes),
    # order (8), count of orbit lengths (2), the orbit lengths (6, 1), 4
    # bytes each, then the 4-byte CRC-32 of all that
    assert struct.unpack_from("<2I", raw, 24) == group.lengths == (6, 1)
    assert len(raw) == 36
    for bad in (raw[:14] + struct.pack("<Q", 3) + raw[22:],   # order != |W|
                raw[:-1],                                    # short CRC
                raw + b"\x00",                               # trailing byte
                raw[:24] + struct.pack("<I", 3) + raw[28:],   # orbit length
                raw[:33] + bytes([raw[33] ^ 1]) + raw[34:],   # bad CRC
                raw[:-4] + raw[-4:][::-1]):                  # bad CRC
        path.write_bytes(bad)
        with pytest.raises(CacheFormatError):
            load_group(path)
    # B3 -> C3, one bit of the label: the same group, so the same roots,
    # order and orbit lengths, and only the checksum refuses it
    save_group(generate_group(system_from_spec("B3")), path)
    raw = path.read_bytes()
    assert raw[8:10] == b"B3" and ord("B") ^ ord("C") == 1
    path.write_bytes(raw[:8] + b"C3" + raw[10:])
    with pytest.raises(CacheFormatError, match="CRC-32"):
        load_group(path)
    path.write_bytes(_redigested(raw[:8] + b"C3" + raw[10:]))
    assert load_group(path).lengths == (6, 4, 2)


def _redigested(raw: bytes) -> bytes:
    """A version 6 file image with its CRC-32 made to match again."""
    return raw[:-4] + struct.pack("<I", zlib.crc32(raw[:-4]))


def test_cache_orbit_lengths_are_checked_under_a_matching_digest(tmp_path):
    # each orbit length, and the label, against a chain rebuilt from it
    group = generate_group(system_from_spec("A1+B2"))
    assert group.lengths == (2, 4, 2)
    path = tmp_path / "g.grp"
    save_group(group, path)
    raw = path.read_bytes()
    at = len(raw) - 4 - 12  # the three orbit lengths
    for k, wrong in ((0, 4), (1, 2), (2, 4)):
        field = at + 4 * k
        path.write_bytes(_redigested(raw[:field] + struct.pack("<I", wrong)
                                     + raw[field + 4:]))
        with pytest.raises(CacheFormatError, match="orbit lengths"):
            load_group(path)
    # B2+A1 has the same roots and order, and its chain (4, 2, 2) differs
    assert raw[8:13] == b"A1+B2"
    path.write_bytes(_redigested(raw[:8] + b"B2+A1" + raw[13:]))
    with pytest.raises(CacheFormatError, match="orbit lengths"):
        load_group(path)


def test_cache_of_a_system_past_the_ring_limit_is_refused(tmp_path):
    # a version 6 file, under a CRC-32 that matches, that is right in
    # everything but the system, which could never have been enumerated;
    # the refusal comes before any root
    label = b"I2(7)+I2(9)+I2(11)"
    path = tmp_path / "wide.grp"
    head = (struct.pack("<4sBBH", b"CXGC", 6, 1, len(label)) + label
            + struct.pack("<IQH", 54, 5544, 0))
    path.write_bytes(_redigested(head + bytes(4)))
    with pytest.raises(CacheFormatError, match="ring limit"):
        load_group(path)


def test_cache_of_e8_is_refused_before_its_walk(tmp_path):
    # a version 6 file is under a hundred bytes whatever the group, so one of
    # W(E8) could be forged; loading it refuses as enumerating it does
    group = Group(system_from_spec("E8"))
    assert group.order == 696_729_600
    save_group(group, tmp_path / "e8.grp")
    with pytest.raises(CacheFormatError, match="beyond desk scale"):
        load_group(tmp_path / "e8.grp")


# A2 as saved by cache format version 1, whose roots were ambient vectors
# in another order; its permutations mean nothing under the current roots
_A2_CACHE_V1 = bytes.fromhex(
    "43584743010102004132060000000600000000000000020001000000020000000001"
    "02030405010003020504020400050103040205000301030501040002050304010200")


def test_cache_written_by_version_1_is_refused(tmp_path):
    # and the element stores of versions 2-4 and the SHA-256 of version 5,
    # here a fresh file with its version byte changed: load_group reads
    # version 6 only, and a file warmed again is one
    path = tmp_path / "a2.grp"
    save_group(generate_group(system_from_spec("A2")), path)
    raw = path.read_bytes()
    for version in (1, 2, 3, 4, 5):
        path.write_bytes(_A2_CACHE_V1 if version == 1
                         else raw[:4] + bytes([version]) + raw[5:])
        with pytest.raises(CacheFormatError,
                           match=f"version {version}, expected 6; run "
                                 "`cache warm` again"):
            load_group(path)


def test_a_fresh_cache_file_carries_version_5(tmp_path):
    # version 6, like version 5, stores no element: B3 (48 elements) in
    # 40 bytes
    group = generate_group(system_from_spec("B3"))
    save_group(group, tmp_path / "b3.grp")
    raw = (tmp_path / "b3.grp").read_bytes()
    assert raw[:4] == b"CXGC" and raw[4] == 6 and len(raw) == 40

