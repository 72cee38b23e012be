"""Group generation, composition, matrices, and the on-disk cache."""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from coxtraces import group as group_module
from coxtraces import roots
from coxtraces.group import (HEAVY_THRESHOLD, BudgetExceededError,
                             CacheFormatError, Group, GroupElement,
                             _compose, _conjugate, _invert,
                             _descend, _table, _walker,
                             contains_minus_identity,
                             generate_group, load_group, longest_element,
                             save_group, shared_group)
from coxtraces.linalg import CertificateError, Matrix
from coxtraces.roots import closure, system_from_spec, system_order


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
    return [GroupElement(group, i) for i in group.generator_ids]


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
        group = shared_group(system_from_spec(label))
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


@pytest.mark.parametrize("label", ["A3", "H3", "B2+I2(5)+A0"])
def test_closure_to_a_depth_is_a_prefix_of_the_full_closure(label):
    system = system_from_spec(label)
    gens = [_table(g) for g in system.simple_reflections]
    full, full_index, full_layers = _full_bfs(system)
    for depth in range(1, len(full_layers) + 2):
        perms, index, layers = closure([bytes(range(len(system.roots)))],
                                       gens, bytes.translate, depth=depth)
        assert layers == full_layers[:depth]
        assert perms == full[:sum(layers)]
        assert index == {p: full_index[p] for p in perms}


@pytest.mark.parametrize("label", ["A0", "A1", "A3", "B3", "H3", "A2+A1",
                                   "E6", "B5+A3", "A1+H4", "I2(127)"])
def test_mirror_gives_the_full_bfs_set_with_the_lower_ids(label):
    system = system_from_spec(label)
    group = generate_group(system)
    full, _, layers = _full_bfs(system)
    assert sorted(elements(group)) == sorted(full)
    assert [group.id_of(p) for p in elements(group)] == list(range(group.order))
    # the ids of the lower half, in BFS order, are the BFS ranks' elements
    line = sum(layers[:len(system.roots) // 4 + 1])
    assert [group.perm(i) for i in group._lower] == full[:line]
    # the fold: ids below |W|/2 send beta to a positive root, and the id
    # |W|/2 above is w0 times the same element
    if system.roots:
        half, w0 = group.order // 2, _table(longest_element(system))
        beta, positive = system.simple_root_indices[0], system.positive
        for i in range(half):
            assert positive[group.perm(i)[beta]]
            assert group.perm(i + half) == group.perm(i).translate(w0)


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
def test_a_shorter_w0_fails_the_repeat_check(label, monkeypatch):
    system = system_from_spec(label)
    w0, s0 = longest_element(system), system.simple_reflections[0]
    monkeypatch.setattr(group_module, "longest_element",
                        lambda system: _compose(w0, s0))
    with pytest.raises(CertificateError, match="repeats"):
        generate_group(system)


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


def test_a_wrong_degree_fails_the_layer_certificate(monkeypatch):
    # degrees of E6 with the right |W| = 51840 and |R| = 72, so only the
    # Poincare polynomial can tell them from (2, 5, 6, 8, 9, 12)
    degrees, edges = roots._EXCEPTIONAL[("E", 6)]
    wrong = (2, 6, 6, 6, 10, 12)
    assert sum(wrong) == sum(degrees) and wrong != degrees
    monkeypatch.setitem(roots._EXCEPTIONAL, ("E", 6), (wrong, edges))
    system = system_from_spec("E6")
    assert system_order(system.factors) == 51840 and len(system.roots) == 72
    with pytest.raises(RuntimeError, match="Poincare polynomial"):
        generate_group(system)


def test_composite_group_order():
    group = shared_group(system_from_spec("A1+G2"))
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


def test_heavy_groups_need_the_flag():
    system = system_from_spec("E7")
    assert system_order(system.factors) > HEAVY_THRESHOLD
    with pytest.raises(BudgetExceededError):
        generate_group(system)


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        generate_group(system_from_spec("B3"), budget=10)
    # 258 roots do not fit the one-byte-per-root element format; the
    # refusal comes before any enumeration, whatever the budget
    with pytest.raises(BudgetExceededError, match="258 roots"):
        generate_group(system_from_spec("H4+B3+H4"), budget=10 ** 11,
                       heavy=True)


def test_e8_is_refused_even_with_heavy_and_budget():
    system = system_from_spec("E8")
    with pytest.raises(BudgetExceededError):
        generate_group(system, budget=10 ** 10, heavy=True)


def test_identity_and_inverse_axioms():
    group = shared_group(system_from_spec("B3"))
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
    group = shared_group(system_from_spec("A3"))
    rng = random.Random(5)
    for _ in range(30):
        g, h, k = (GroupElement(group, rng.randrange(group.order))
                   for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))


def test_generators_are_involutive_reflections():
    group = shared_group(system_from_spec("H3"))
    ring = group.system.ring
    for g in generators(group):
        assert compose(g, g) == group.identity
        m = g.matrix()
        assert m.det() == ring.integer(-1)
        assert m * m == Matrix.identity(3, ring)


def test_matrices_form_a_representation():
    group = shared_group(system_from_spec("B3"))
    rng = random.Random(3)
    for _ in range(25):
        i = rng.randrange(group.order)
        j = rng.randrange(group.order)
        left = compose(GroupElement(group, i), GroupElement(group, j)).matrix()
        right = group.span_matrix_of(i) * group.span_matrix_of(j)
        assert left == right


def test_generator_matrices_equal_literal_reflections():
    # s_k(alpha_j) = alpha_j - a_kj alpha_k: the identity with row k
    # replaced by e_k - (row k of the Cartan matrix)
    for label in ("B3", "H3", "I2(10)", "I2(7)", "H3+I2(8)"):
        system = system_from_spec(label)
        group, ring = shared_group(system), system.ring
        identity = Matrix.identity(system.rank, ring).rows
        for k, g in enumerate(generators(group)):
            rows = list(identity)
            rows[k] = tuple(map(ring.sub, identity[k], system.cartan[k]))
            assert g.matrix() == Matrix(rows, ring), (label, k)


def test_matrices_preserve_the_gram_form():
    # a symmetric Cartan matrix is a multiple of the Gram matrix of the
    # simple roots, so every element preserves it
    for label in ("A2", "H3", "I2(5)", "I2(7)", "I2(9)+A1"):
        system = system_from_spec(label)
        group = shared_group(system)
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
        group = shared_group(system)
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
    group = shared_group(system_from_spec("G2"))
    ring = group.system.ring
    # generators have det -1, so any product of k of them has det (-1)^k
    a, b = generators(group)
    g = compose(a, b)
    assert g.matrix().det() == ring.one
    assert compose(g, a).matrix().det() == ring.integer(-1)


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


@pytest.mark.parametrize("label", ["A0", "A0+A3", "B2", "G2", "I2(8)",
                                   "I2(127)", "B5+A3", "A1+H4", "E6", "F4",
                                   "H3+I2(7)", "D6", "A1+B5", "A1+A1+A1",
                                   "B2+I2(12)", "I2(9)+I2(12)"])
def test_class_walk_equals_the_simple_reflection_walk(label):
    group = shared_group(system_from_spec(label))
    walk = group.class_orbits()
    oracle = _simple_reflection_walk(group)
    assert ({frozenset(m) for m in walk} == {frozenset(m) for m in oracle}
            and len(walk) == len(oracle))
    # in the full-BFS numbering the classes come by least element, which
    # is their representative
    _, full_index, _ = _full_bfs(group.system)
    least = [min(full_index[group.perm(i)] for i in m) for m in walk]
    assert [full_index[group.perm(m[0])] for m in walk] == least
    assert least == sorted(least)


@pytest.mark.parametrize("label", ["A8", "D5+I2(3)", "D6", "A1+B5",
                                   "A1+A1+A1", "B2+I2(12)", "I2(9)+I2(12)",
                                   "A1+H4", "B2+I2(5)+A0", "A0"])
def test_center_has_one_sign_per_factor_with_minus_one(label):
    group = shared_group(system_from_spec(label))
    center = group.center()
    with_minus_one = sum(f.contains_minus_identity for f in group.system.factors)
    assert len(center) == len(set(center)) == 2 ** with_minus_one, label
    assert center[0] == group.perm(0)
    for z in center:
        assert z in group
        assert all(_compose(z, x) == _compose(x, z)
                   for x in elements(group)[:50])


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


def _descend_key(group, members):
    """The ranking before the pruned descent: a full _descend per
    least-length member."""
    system = group.system
    lengths = {i: group_module._length(system, group.perm(i)) for i in members}
    least = min(lengths.values())
    return min(((least, _descend(system, group.perm(i))[1]), i, members)
               for i in members if lengths[i] == least)


@pytest.mark.parametrize("label", ["D7", "A1+H4", "F4+I2(3)"])
def test_pruned_bfs_key_is_the_per_member_descent_key(label):
    group = shared_group(system_from_spec(label))
    found, _ = group._orbits([_walker(g) for g in group.walk_set()])
    for members in found:
        assert group_module._bfs_key(group, members) == \
            _descend_key(group, members), (label, members[0])


@pytest.mark.parametrize("label, size", [("A0", 0), ("A1", 1), ("B2", 2),
                                         ("G2", 2), ("I2(9)", 2), ("H3", 2),
                                         ("D4", 3), ("F4", 3), ("E6", 2),
                                         ("B5+A3", 4)])
def test_walk_set_sizes(label, size):
    group = shared_group(system_from_spec(label))
    walk = group.walk_set()
    assert len(walk) == size
    if size < group.system.rank:
        # the Coxeter element s_1 s_2 ... s_r, then simple reflections
        simple = [group.perm(i) for i in group.generator_ids]
        c = group.identity
        for g in generators(group):
            c = compose(c, g)
        assert walk[0] == group.perm(c.index)
        assert all(g in simple for g in walk[1:])


def test_conjugate_takes_the_inverse_and_the_table():
    group = shared_group(system_from_spec("A3"))
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
    long_root = group.perm(group.generator_ids[1])
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
    # load_group checks the stored layers with
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
    assert loaded._lower == group._lower
    assert loaded.generator_ids == group.generator_ids


@pytest.mark.parametrize("label", ["A0", "A0+A0", "A1", "A1+A0", "A1+A1"])
def test_cache_roundtrip_of_the_smallest_groups(tmp_path, label):
    # the lower half of A1 is its identity alone: its simple reflection,
    # which is w0, is not in the file
    group = generate_group(system_from_spec(label))
    save_group(group, tmp_path / "g.grp")
    loaded = load_group(tmp_path / "g.grp")
    assert elements(loaded) == elements(group)
    assert loaded.generator_ids == group.generator_ids


def test_cache_blocks_leave_the_file_bytes_as_they_were(tmp_path,
                                                       monkeypatch):
    # one header, the SHA-256 of the joined payload, then the payload,
    # the elements of length <= floor(N/2) in the order of the full BFS:
    # the same bytes whatever the block size, and more than one block
    system = system_from_spec("A7")
    group = generate_group(system)
    full, _, layers = _full_bfs(system)
    lower = full[:sum(layers[:len(system.roots) // 4 + 1])]
    assert len(lower) > group_module._CACHE_BLOCK
    label, ids = b"A7", range(1, 8)  # the BFS ranks of s_1, ..., s_7
    payload = b"".join(lower)
    expected = (struct.pack("<4sBBH", b"CXGC", 4, 1, len(label)) + label
                + struct.pack("<IQH", 56, group.order, len(ids))
                + struct.pack(f"<{len(ids)}I", *ids)
                + hashlib.sha256(payload).digest() + payload)
    save_group(group, tmp_path / "a7.grp")
    assert (tmp_path / "a7.grp").read_bytes() == expected
    monkeypatch.setattr(group_module, "_CACHE_BLOCK", 7)
    save_group(group, tmp_path / "a7_small_blocks.grp")
    assert (tmp_path / "a7_small_blocks.grp").read_bytes() == expected


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
    # order (8), generator count (2), one 4-byte id per generator, then
    # the 32-byte payload digest
    for bad in (raw[:14] + struct.pack("<Q", 3) + raw[22:],   # order != |W|
                raw[:-1],                                    # short payload
                raw + b"\x00",                               # long payload
                raw[:24] + struct.pack("<I", 6) + raw[28:],   # id >= order
                raw[:40] + bytes([raw[40] ^ 1]) + raw[41:],   # bad digest
                raw[:-6] + raw[-6:][::-1]):                  # bad payload
        path.write_bytes(bad)
        with pytest.raises(CacheFormatError):
            load_group(path)


def _forge(group, path, k, perm):
    """The group's cache file with lower-half element k replaced by perm
    under a digest that matches."""
    save_group(group, path)
    lower = [group.perm(i) for i in group._lower]
    head = path.read_bytes()[:-32 - len(b"".join(lower))]  # before the digest
    payload = b"".join(lower[:k] + [perm] + lower[k + 1:])
    path.write_bytes(head + hashlib.sha256(payload).digest() + payload)
    return lower


def test_cache_checks_what_the_digest_cannot(tmp_path):
    # B3: layers 1, 3, 5, 7, 8 up to length floor(9/2) = 4
    group = generate_group(system_from_spec("B3"))
    path = tmp_path / "b3.grp"
    lower = [group.perm(i) for i in group._lower]
    out_of_range = bytes([18]) + lower[5][1:]   # B3 has 18 roots
    for k, perm, message in ((1, lower[1][::-1], "simple reflections"),
                             (5, lower[0], "layers of length"),
                             (5, out_of_range, "layers of length"),
                             (5, lower[4], "repeats")):  # both of length 2
        _forge(group, path, k, perm)
        with pytest.raises(CacheFormatError, match=message):
            load_group(path)


@pytest.mark.parametrize("label, k", [("B3", 5), ("B3", 23), ("A3", 5),
                                      ("A3", 12), ("H3", 59)])
def test_cache_element_swapped_for_its_w0_partner_is_refused(tmp_path, label,
                                                            k):
    # w0 x is stored exactly when x is not, so the fold alone cannot tell
    # them apart; below the middle length w0 x is too long, and in the
    # middle (A3, N = 6: lengths 3 and 3) it is stored twice
    group = generate_group(system_from_spec(label))
    w0 = longest_element(group.system)
    path = tmp_path / "forged.grp"
    lower = _forge(group, path, k, _compose(w0, group.perm(group._lower[k])))
    middle = group_module._length(group.system, lower[k]) * 2 == len(w0) // 2
    with pytest.raises(CacheFormatError,
                       match="repeats" if middle else "layers of length"):
        load_group(path)


def test_cache_of_a_system_past_the_ring_limit_is_refused(tmp_path):
    # a header that is right in everything but the system, which could
    # never have been enumerated; the refusal comes before any root
    label = b"I2(7)+I2(9)+I2(11)"
    path = tmp_path / "wide.grp"
    path.write_bytes(struct.pack("<4sBBH", b"CXGC", 2, 1, len(label)) + label
                     + struct.pack("<IQH", 54, 5544, 0) + bytes(32))
    with pytest.raises(CacheFormatError, match="ring limit"):
        load_group(path)


# A2 as saved by cache format version 1, whose roots were ambient vectors
# in another order; its permutations mean nothing under the current roots
_A2_CACHE_V1 = bytes.fromhex(
    "43584743010102004132060000000600000000000000020001000000020000000001"
    "02030405010003020504020400050103040205000301030501040002050304010200")


def test_cache_written_by_version_1_is_refused(tmp_path):
    path = tmp_path / "a2.grp"
    path.write_bytes(_A2_CACHE_V1)
    with pytest.raises(CacheFormatError, match="version 1, expected 2"):
        load_group(path)


def test_a_fresh_cache_file_carries_version_4(tmp_path):
    # version 4 stores the lower half only; a version 3 file of the same
    # group (all of W, the lower half first) loads to the same group, at
    # about twice the bytes
    system = system_from_spec("B3")
    group = generate_group(system)
    save_group(group, tmp_path / "b3.grp")
    raw = (tmp_path / "b3.grp").read_bytes()
    assert raw[:4] == b"CXGC" and raw[4] == 4
    lower = [group.perm(i) for i in group._lower]
    upper = [p for p in elements(group) if p not in lower]
    payload = b"".join(lower + upper)
    head = raw[:-32 - 18 * len(lower)]
    (tmp_path / "v3.grp").write_bytes(head[:4] + b"\x03" + head[5:]
                                      + hashlib.sha256(payload).digest()
                                      + payload)
    loaded = load_group(tmp_path / "v3.grp")
    assert elements(loaded) == elements(group)
    assert loaded._lower == group._lower
    assert len(raw) < 0.55 * (tmp_path / "v3.grp").stat().st_size


def test_shared_group_memoizes():
    a = shared_group(system_from_spec("A2"))
    b = shared_group(system_from_spec("A2"))
    assert a is b
