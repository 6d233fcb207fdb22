"""Group construction, validation, families, and the file format."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasirep import groups, textfile
from quasirep.errors import (
    ClosureCapExceeded,
    FileFormatError,
    NotAGroup,
    UnsupportedParameter,
)

# Latin square with identity 0 and every element self-inverse, but not
# associative: (1*1)*2 = 0*2 = 2 while 1*(1*2) = 1*3 = 4
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_trivial_group():
    g = groups.named("cyclic", 1)
    assert g.order == 1
    assert g.identity == 0
    assert g.classes == ((0,),)
    assert g.table[0, 0] == 0
    assert g.inverses[0] == 0


def test_cyclic_structure():
    g = groups.named("cyclic", 12)
    assert g.order == 12
    assert len(g.classes) == 12  # abelian: every class is a singleton
    for x in range(12):
        assert g.inverses[x] == (12 - x) % 12
        for y in range(12):
            assert g.table[x, y] == (x + y) % 12


def test_symmetric_three():
    g = groups.named("symmetric", 3)
    assert g.order == 6
    assert sorted(g.class_sizes) == [1, 2, 3]
    # witness non-commutativity
    assert any(g.table[x, y] != g.table[y, x]
               for x in range(6) for y in range(6))


def test_dihedral_small_cases():
    d1 = groups.named("dihedral", 1)
    assert d1.order == 2
    d2 = groups.named("dihedral", 2)
    assert d2.order == 4
    # Klein four-group: abelian, every element its own inverse
    assert len(d2.classes) == 4
    assert all(d2.table[x, x] == d2.identity for x in range(4))
    d4 = groups.named("dihedral", 4)
    assert d4.order == 8
    assert len(d4.classes) == 5


def test_alternating_orders():
    assert groups.named("alternating", 4).order == 12
    a5 = groups.named("alternating", 5)
    assert a5.order == 60
    assert sorted(a5.class_sizes) == [1, 12, 12, 15, 20]
    a6 = groups.named("alternating", 6)
    assert a6.order == 360
    assert len(a6.classes) == 7


def test_quaternion_group():
    g = groups.named("quaternion8")
    assert g.order == 8
    assert len(g.classes) == 5
    # exactly one involution (the central -1)
    involutions = [x for x in range(8)
                   if x != g.identity and g.table[x, x] == g.identity]
    assert len(involutions) == 1


def test_heisenberg_three():
    g = groups.named("heisenberg", 3)
    assert g.order == 27
    assert len(g.classes) == 11
    # exponent p: every element cubes to the identity
    assert all(g.table[g.table[x, x], x] == g.identity for x in range(27))


@pytest.mark.parametrize("p,order", [(3, 24), (5, 120), (7, 336)])
def test_sl2_orders(p, order):
    assert groups.named("sl2", p).order == order


@pytest.mark.parametrize("p,order", [(5, 60), (7, 168), (11, 660)])
def test_psl2_orders(p, order):
    assert groups.named("psl2", p).order == order


def test_psl2_five_matches_alternating_five():
    # same class-size profile as A5 (they are isomorphic)
    p5 = groups.named("psl2", 5)
    a5 = groups.named("alternating", 5)
    assert sorted(p5.class_sizes) == sorted(a5.class_sizes)


def test_product_of_cyclics():
    g = groups.product(groups.named("cyclic", 2), groups.named("cyclic", 3))
    assert g.order == 6
    assert len(g.classes) == 6
    # element orders are those of Z6
    def elt_order(x):
        k, y = 1, x
        while y != g.identity:
            y = g.table[y, x]
            k += 1
        return k
    assert sorted(elt_order(x) for x in range(6)) == [1, 2, 3, 3, 6, 6]


def test_unknown_family_and_bad_parameters():
    with pytest.raises(UnsupportedParameter):
        groups.named("nosuch", 3)
    with pytest.raises(UnsupportedParameter):
        groups.named("symmetric", 7)
    with pytest.raises(UnsupportedParameter):
        groups.named("alternating", 0)
    with pytest.raises(UnsupportedParameter):
        groups.named("psl2", 13)
    with pytest.raises(UnsupportedParameter):
        groups.named("heisenberg", 7)
    with pytest.raises(UnsupportedParameter):
        groups.named("cyclic", 0)


def test_from_table_rejects_non_latin():
    # no Latin-square pass: the identity, inverse or associativity check
    # names the witness
    with pytest.raises(NotAGroup, match="^element 1 has no two-sided inverse$"):
        groups.from_table([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup, match="^no two-sided identity element$"):
        groups.from_table([[0, 1], [0, 1]])
    # cyclic(700) with 1*2 = 5: row 1 holds 5 twice and 3 never, while the
    # identity row and column and every inverse are intact
    table = groups.named("cyclic", 700).table.copy()
    table[1, 2] = 5
    # (1*1)*1 = 2*1 = 3, but 1*(1*1) = 1*2 = 5
    with pytest.raises(NotAGroup,
                       match=r"^associativity fails at \(x, y, z\) = \(1, 1, 1\)$"):
        groups.from_table(table)


def _is_group_by_brute_force(table):
    """The n^3 axiom check: a two-sided identity, a two-sided inverse of
    every element, and (x*y)*z = x*(y*z) for every triple."""
    n = len(table)
    every = range(n)
    ids = [e for e in every if all(table[e][x] == table[x][e] == x for x in every)]
    return (bool(ids)
            and all(any(table[x][y] == table[y][x] == ids[0] for y in every) for x in every)
            and all(table[table[x][y]][z] == table[x][table[y][z]]
                    for x in every for y in every for z in every))


def test_from_table_accepts_exactly_the_groups_of_order_at_most_three():
    # every integer table with entries in 0..n-1, n <= 3: 3^9 + 2^4 + 1
    accepted = refused = 0
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            table = np.array(entries).reshape(n, n)
            try:
                groups.from_table(table)
            except NotAGroup:
                refused += 1
                assert not _is_group_by_brute_force(table.tolist()), table
            else:
                accepted += 1
                assert _is_group_by_brute_force(table.tolist()), table
    assert (accepted, refused) == (6, 3 ** 9 + 2 ** 4 + 1 - 6)


def test_from_table_rejects_shape_and_range():
    with pytest.raises(NotAGroup, match="square"):
        groups.from_table([[0, 1, 0], [1, 0, 1]])
    with pytest.raises(NotAGroup, match="outside"):
        groups.from_table([[0, 1], [1, 5]])
    with pytest.raises(NotAGroup, match="^empty table$"):
        groups.from_table(np.zeros((0, 0), dtype=np.int64))


def test_product_above_the_cap_is_refused():
    c100 = groups.named("cyclic", 100)
    with pytest.raises(UnsupportedParameter,
                       match="^product order 10000 exceeds the cap 5000$"):
        groups.product(c100, c100)


def test_a_family_closing_to_the_wrong_order_is_refused():
    with pytest.raises(NotAGroup, match=r"^x closure has 3 elements, expected 6$"):
        groups._generated("x", 3, [(1, 2, 0)], 6)


@pytest.mark.parametrize("table", [
    [[0, 1.9], [1.9, 0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [["0", "1"], ["1", "0"]],
    [[False, True], [True, False]],
    [[0, 1 + 0j], [1, 0]],
    [[0, 2 ** 64], [2 ** 64, 0]],
    np.array([[0, 1], [1, 0]], dtype=object),
], ids=["float", "whole-float", "str", "bool", "complex", "2**64", "object"])
def test_from_table_refuses_entries_without_an_integer_dtype(table):
    with pytest.raises(NotAGroup, match="dtype"):
        groups.from_table(table)


@pytest.mark.parametrize("convert", [
    lambda t: t.astype(np.int32), lambda t: t.astype(np.uint8),
    lambda t: t.astype(np.int64), lambda t: t.tolist(),
], ids=["int32", "uint8", "int64", "list"])
def test_from_table_takes_integer_dtypes(convert):
    g = groups.named("psl2", 7)
    table = convert(g.table)
    h = groups.from_table(table, name=g.name)
    assert h.table.dtype == np.int64
    assert np.array_equal(h.table, g.table)
    assert groups.group_hash(h) == groups.group_hash(g)
    # the entries are copied: the caller's array stays writeable
    assert isinstance(table, list) or table.flags.writeable


def test_from_table_rejects_missing_identity():
    # subtraction mod 3 is a Latin square with no two-sided identity
    n = 3
    table = [[(i - j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(NotAGroup, match="identity"):
        groups.from_table(table)


def test_from_table_rejects_one_sided_inverse():
    # a loop with identity 0 where 2 * 3 = 0 but 3 * 2 = 1
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]]
    with pytest.raises(NotAGroup, match="element 2 has no two-sided inverse"):
        groups.from_table(loop)


def test_from_table_rejects_nonassociative_loop():
    # the loop itself, and the loop times cyclic(103), above order 512
    loop = np.array(NONASSOC_LOOP)
    m = 103
    big = (loop[:, None, :, None] * m
           + np.add.outer(np.arange(m), np.arange(m))[None, :, None, :] % m
           ).reshape(5 * m, 5 * m)
    for table in (loop, big):
        with pytest.raises(NotAGroup, match="associativity") as err:
            groups.from_table(table)
        x, y, z = (int(v) for v in re.findall(r"\d+", str(err.value))[-3:])
        assert table[table[x, y], z] != table[x, table[y, z]]


def test_from_permutation_generators_s3():
    g = groups.from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert sorted(g.class_sizes) == [1, 2, 3]


def test_from_permutation_generators_rejects_non_permutation():
    with pytest.raises(UnsupportedParameter):
        groups.from_permutation_generators(3, [(0, 0, 2)])


def bfs_elements(degree, gens):
    """Reference closure: breadth-first by right multiplication, as documented."""
    elements = [tuple(range(degree))]
    for g in elements:
        for s in gens:
            p = tuple(g[x] for x in s)
            if p not in elements:
                elements.append(p)
    return elements


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.permutations(range(d)), max_size=3))))
def test_closure_table_matches_brute_force(case):
    degree, gens = case
    elements = bfs_elements(degree, gens)
    index = {e: i for i, e in enumerate(elements)}
    brute = [[index[tuple(a[x] for x in b)] for b in elements] for a in elements]
    g = groups.from_permutation_generators(degree, gens)
    assert np.array_equal(g.table, brute)


def test_closure_cap():
    # S8 (order 40320) passes CLOSURE_CAP partway through its closure
    with pytest.raises(ClosureCapExceeded, match=f"cap of {groups.CLOSURE_CAP} elements"):
        groups.from_permutation_generators(8, [(1, 0, 2, 3, 4, 5, 6, 7),
                                               (1, 2, 3, 4, 5, 6, 7, 0)])


def reference_closure(table, root, gens):
    """The elements reached from root by right multiplication by gens: a
    plain fixed-point loop over the whole reached set."""
    reached = {root}
    while True:
        more = {int(table[x, s]) for x in reached for s in gens} - reached
        if not more:
            return reached
        reached |= more


@pytest.mark.parametrize("spec,subset", [
    (("psl2", 7), None),
    (("sl2", 5), None),
    (("heisenberg", 3), None),
    (("dihedral", 350), None),
    (("alternating", 5), (1, 33)),      # generate a subgroup of order 12
    (("psl2", 7), (1, 112)),            # generate a subgroup of order 21
    (("cyclic", 1), None),              # no generators: an empty tree
])
def test_cayley_tree_layers(spec, subset):
    g = groups.named(*spec)
    gens = list(g.generators if subset is None else subset)
    right = g.table[:, gens]
    layers = groups._cayley_tree(right, g.identity)
    if subset is None:
        # the group keeps the walk of Light's last check, read-only
        assert len(g.tree) == len(layers)
        for kept, layer in zip(g.tree, layers):
            assert all(np.array_equal(a, b) for a, b in zip(kept, layer, strict=True))
            assert not any(a.flags.writeable for a in kept)
        assert (g.generators == ()) == (g.tree == ()) == (g.order == 1)
    reached = reference_closure(g.table, g.identity, gens)
    assert len(reached) == g.order if subset is None else 1 < len(reached) < g.order
    # the layers partition the reached set minus the root
    children = [x for c, _, _ in layers for x in c.tolist()]
    assert len(children) == len(set(children))
    assert set(children) == reached - {g.identity}
    depth = {g.identity: 0}
    for i, (c, parents, steps) in enumerate(layers, 1):
        assert all(depth.get(int(p), i) < i for p in parents)
        assert np.array_equal(right[parents, steps], c)
        depth.update(dict.fromkeys(c.tolist(), i))
    # no layer is empty, so the number of layers is the tree's depth D
    assert max(depth.values()) == len(layers)


@pytest.mark.parametrize("spec", [("cyclic", 1), ("cyclic", 12), ("dihedral", 7),
                                  ("quaternion8",), ("psl2", 7)])
def test_element_orders_match_brute_force_and_are_kept_read_only(spec):
    g = groups.named(*spec)
    orders = g.element_orders
    assert g.element_orders is orders
    assert not orders.flags.writeable
    for x in range(g.order):
        t, power = 1, x
        while power != g.identity:
            power, t = g.table[power, x], t + 1
        assert orders[x] == t, x


def test_light_generators_are_the_smallest_unreached_elements():
    # relabel psl2(7) so that the identity is not element 0
    g = groups.named("psl2", 7)
    perm = np.roll(np.arange(g.order), 11)       # new label of old x
    inverse = np.argsort(perm)
    h = groups.from_table(perm[g.table[inverse][:, inverse]])
    assert h.identity != 0
    reached = {h.identity}
    for i, s in enumerate(h.generators):
        assert s == min(set(range(h.order)) - reached)
        reached = reference_closure(h.table, h.identity, h.generators[:i + 1])
    assert len(reached) == h.order


def test_deterministic_element_order():
    t1 = groups.named("symmetric", 4)
    t2 = groups.named("symmetric", 4)
    assert np.array_equal(t1.table, t2.table)
    assert groups.group_hash(t1) == groups.group_hash(t2)


# every supported spec of the generated families, cyclic groups of orders
# 1, 2, 12 and 700, and dihedral(350), whose closure tree is the longest
PINNED_DIGESTS = {
    ("dihedral", 1): "d98182d528781fc7b9e9fed3eed067203318a4a909eea2527d32f521b4df99e8",
    ("dihedral", 2): "1da0773249ac288abe75822613e298251fe43beb450c1f93ec21d9396fa71fde",
    ("dihedral", 3): "cbc303c6acf461f9b2f6cb37b2734861236f27f02f956e12c3372d92b96a78e7",
    ("dihedral", 4): "de4442ce16709f98a01f9fce621387dd1ca212e4bfbf2bffb2533fe5e90dcc0e",
    ("dihedral", 5): "0ace9953c73d5a912a1734f1c6246c4e1cfef257a8068ee39190d4c70a967095",
    ("dihedral", 6): "722c5650147f708cb12327fdafcae7974f97025e31343b5e8107c06669758aab",
    ("dihedral", 7): "bf76114d95c0c3e6ddc513f8e086e238f8dce50ac517b3f9eb5c30e95388702a",
    ("dihedral", 8): "25c96e6229fdf37fca28837ef1dfeb45b715d5b2f610e264a0cec0df21937687",
    ("dihedral", 9): "b405aa16f943698fc2201289ce3ca00ff412a0f0ce977a972975412534ffdca1",
    ("dihedral", 10): "afb494c68487ad951e7ed5d566dc7dc0d54f8aae71f6a3609e840e347b1a42b9",
    ("dihedral", 11): "bb3d6a0b697ea93743d64d33c73077eea745bdafa8e649688d920873a699fb43",
    ("dihedral", 12): "2c17fde5513f54c30927cd05b5e54eec070b1fb31b4ae07b087a3f56a7c1d1d7",
    ("dihedral", 350): "14b6ea1c3abf4506bee3c218f58d54dfc8e6b55bdbc1b21ecc2271c01a86ff43",
    ("symmetric", 1): "7c29c983d26460569a91ec01d1b653ca4662176e12cf0e34f7a7fa9dfd40e2fd",
    ("symmetric", 2): "d98182d528781fc7b9e9fed3eed067203318a4a909eea2527d32f521b4df99e8",
    ("symmetric", 3): "9d2ca58bd6285b6175cceacb4c0c47d54c7b1ce1575c2b57220fc2847f36fed1",
    ("symmetric", 4): "5725b042701c33c1dea9ce89bfb4aba5e53155edb55c4b9e39fdfc3efd994eee",
    ("symmetric", 5): "5d2d11f628405f5a229e152abe1fe9cfafed6f2fb7a08650c10b92dfb483dbbe",
    ("symmetric", 6): "9452c84eae299c021c6a2c77c4b3ca71945139a71f5f8ab3d833430632a0bdec",
    ("alternating", 1): "7c29c983d26460569a91ec01d1b653ca4662176e12cf0e34f7a7fa9dfd40e2fd",
    ("alternating", 2): "7c29c983d26460569a91ec01d1b653ca4662176e12cf0e34f7a7fa9dfd40e2fd",
    ("alternating", 3): "5b42aa8541c8248616d5ca7955b949e7bf3c1bca594b8897a39c579d4a4b8648",
    ("alternating", 4): "7fd3d3a5b6e7a472ded2d35656e8f10b63642f4235645ea41f04a0a3dfd5fb23",
    ("alternating", 5): "bdb4e29156d5d71384a31bbdf4becea6c944af68dc1db5e0acd469d98de3b5b4",
    ("alternating", 6): "f49dc722fcf5db1c5ffee343d06ddc3eefa4b1c8fe3cc2db177a3d0932cc427e",
    ("quaternion8",): "aefd81c5afc3c481749d29bd0f96356ffd06ef019691bb42af36f76f950b8f07",
    ("heisenberg", 3): "ea3b0943f8494e7608732cd5256e8d13e83f1586a2e63c1bf9788b94c3c108f8",
    ("heisenberg", 5): "9cfc7fbc45cd91eece1a0c8d86c675a13c43cf6d7b2a5aa524cbfa4d80b35198",
    ("sl2", 3): "738d0c8278a8a705d0015badca29ba9449d4bdefaee49151c53eadfa1c8b8d37",
    ("sl2", 5): "ebd47569aee8765591f8318f8c2503a01ebab8c2906d46a52234260bed1baf74",
    ("sl2", 7): "459ae8de9040eb1caae9dc0bd922bac4219efddabd6163344ea158755b5dfc23",
    ("psl2", 5): "ccb447c66fb938703e704b784707c7d4e6f239a8a14d85b0f5e96f2cff3e5428",
    ("psl2", 7): "18c36148b5006fc7861122b02c95e583409fea70fb2e9561e794aa8ad4938023",
    ("psl2", 11): "96f5406eb3f2ebcebde1ad5d4fb2dec55bc178f8945eb39d8eded6e4e0a2d002",
    ("cyclic", 1): "7c29c983d26460569a91ec01d1b653ca4662176e12cf0e34f7a7fa9dfd40e2fd",
    ("cyclic", 2): "d98182d528781fc7b9e9fed3eed067203318a4a909eea2527d32f521b4df99e8",
    ("cyclic", 12): "661ee1782092a5054de16e5374bb42e028bcc3ef8ee10330e426d9ece4737771",
    ("cyclic", 700): "899a92c86ee59e83f06823f202d845f5106014a35d4d069f071f0c4b1cb6932c",
}


def test_group_hash_is_pinned():
    # `group` and `irreps` print the hash; a change would alter their output
    for spec, digest in PINNED_DIGESTS.items():
        assert groups.group_hash(groups.named(*spec)) == digest, spec


def test_group_hash_distinguishes_groups():
    h1 = groups.group_hash(groups.named("cyclic", 4))
    h2 = groups.group_hash(groups.product(groups.named("cyclic", 2),
                                          groups.named("cyclic", 2)))
    assert h1 != h2


def _per_entry_rows(table):
    return "".join(" ".join(map(str, row)) + "\n" for row in table.tolist()).encode()


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_table_rows_match_the_per_entry_render(n):
    # token widths change at 10, 100 and 1000 elements; from 1001 on the
    # widest token "1000 " no longer fits a 4-byte word
    table = groups.named("cyclic", n).table
    assert groups._table_rows(table) == _per_entry_rows(table)


def test_table_rows_match_the_per_entry_render_relabelled():
    table = groups.named("psl2", 7).table
    perm = np.random.default_rng(13).permutation(len(table))
    inv = np.argsort(perm)
    relabelled = perm[table[np.ix_(inv, inv)]]
    assert groups._table_rows(relabelled) == _per_entry_rows(relabelled)


def test_table_rows_match_the_per_entry_render_fortran_ordered():
    # from_table keeps the memory order of the table it is given
    table = groups.from_table(np.asfortranarray(groups.named("psl2", 7).table)).table
    assert table.flags.f_contiguous and not table.flags.c_contiguous
    assert groups._table_rows(table) == _per_entry_rows(table)


def test_save_load_round_trip(tmp_path):
    g = groups.named("dihedral", 5)
    path = tmp_path / "d5.grp"
    groups.save_group(g, str(path))
    back = groups.load_group(str(path))
    assert back.name == g.name
    assert np.array_equal(back.table, g.table)
    assert groups.group_hash(back) == groups.group_hash(g)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("wrong header\n0\n")
    with pytest.raises(FileFormatError) as err:
        groups.load_group(str(path))
    assert err.value.line == 1


def test_load_rejects_bad_order_line(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("quasirep-group v1\nname=x\norder=zero\n")
    with pytest.raises(FileFormatError) as err:
        groups.load_group(str(path))
    assert err.value.line == 3


@pytest.mark.parametrize("order", [0, -3])
def test_load_rejects_an_order_below_one(tmp_path, order):
    path = tmp_path / "bad.grp"
    path.write_text(f"quasirep-group v1\nname=x\norder={order}\n")
    with pytest.raises(FileFormatError,
                       match=f"^line 3: order must be positive, got {order}$"):
        groups.load_group(str(path))


def test_load_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("quasirep-group v1\nname=x\norder=2\n0 1\n")
    with pytest.raises(FileFormatError):
        groups.load_group(str(path))


@pytest.mark.parametrize("row,message", [
    ("1 x 0", "non-integer table entry"),
    ("1 3 0", "entry 3 outside 0..2"),
    # beyond int64: the row is unreadable, like a row holding a non-integer
    ("1 -1 99999999999999999999", "non-integer table entry"),
    ("1 99999999999999999999 0", "non-integer table entry"),
    ("99999999999999999999 x 0", "non-integer table entry"),
])
def test_load_names_the_first_bad_entry(tmp_path, row, message):
    path = tmp_path / "bad.grp"
    path.write_text(f"quasirep-group v1\nname=x\norder=3\n0 1 2\n{row}\n2 0 1\n")
    with pytest.raises(FileFormatError, match=message) as err:
        groups.load_group(str(path))
    assert err.value.line == 5


@pytest.mark.parametrize("rows,message,line", [
    # np.loadtxt skips blank and whitespace-only lines; the loader must not
    (["0 1 2", "", "2 0 1"], "row has 0 entries, expected 3", 5),
    (["0 1 2", " \t ", "2 0 1"], "row has 0 entries, expected 3", 5),
    (["0 1 2", "1 2 0", "2 0 5"], "entry 5 outside 0..2", 6),
    (["0 1 2", "1 3 0", "2 x 1"], "entry 3 outside 0..2", 5),
    (["0 1 2", "1 x 0", "2 0 3"], "non-integer table entry", 5),
])
def test_load_names_the_first_bad_line(tmp_path, rows, message, line):
    path = tmp_path / "bad.grp"
    body = "\n".join(rows)
    path.write_text(f"quasirep-group v1\nname=x\norder=3\n{body}\n")
    with pytest.raises(FileFormatError, match=message) as err:
        groups.load_group(str(path))
    assert err.value.line == line


@pytest.mark.parametrize("spell", [
    lambda v: str(v).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda v: f"{v // 10}_{v % 10}",
    lambda v: f"{v}.0",
], ids=["fullwidth", "arabic-indic", "underscore", "float"])
def test_load_rejects_tokens_loadtxt_refuses(tmp_path, spell):
    # int() or float() reads each of these tokens; the file grammar does not
    g = groups.named("cyclic", 12)
    rows = [" ".join(map(str, row)) for row in g.table.tolist()]
    rows[5] = " ".join(map(spell, g.table[5].tolist()))
    body = "".join(row + "\n" for row in rows)
    path = tmp_path / "c12.grp"
    path.write_text(f"quasirep-group v1\nname=c12\norder=12\n{body}", encoding="utf-8")
    with pytest.raises(FileFormatError, match="non-integer table entry") as err:
        groups.load_group(str(path))
    assert err.value.line == 9


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_load_reads_crlf_and_cr_line_endings(tmp_path, newline):
    # read_lines opens the file in text mode, whose universal newlines read
    # both endings as "\n"
    g = groups.named("psl2", 7)
    path = tmp_path / "g.grp"
    groups.save_group(g, str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    back = groups.load_group(str(path))
    assert back.name == g.name
    assert np.array_equal(back.table, g.table)
    assert groups.group_hash(back) == groups.group_hash(g)


def test_well_formed_files_skip_the_row_loop(tmp_path, monkeypatch):
    def row_loop(rows, order):
        raise AssertionError("row loop ran")
    monkeypatch.setattr(groups, "_check_rows", row_loop)
    for spec in [("cyclic", 1), ("symmetric", 3), ("psl2", 7), ("psl2", 11)]:
        g = groups.named(*spec)
        path = tmp_path / "g.grp"
        groups.save_group(g, str(path))
        assert np.array_equal(groups.load_group(str(path)).table, g.table)
    # the patch is live: a malformed file still reaches the loop
    path.write_text("quasirep-group v1\nname=x\norder=1\n\n")
    with pytest.raises(AssertionError, match="row loop ran"):
        groups.load_group(str(path))


@pytest.mark.parametrize("edit", [
    lambda row: row + "\r",
    lambda row: row + " ",
    lambda row: row.replace(" ", "\f", 1),
    lambda row: row.replace(" 0", " +0", 1),
    lambda row: row.replace(" ", "\r", 1),
    lambda row: row.replace(" ", "\0", 1),
    lambda row: row.replace(" ", " #", 1),
    lambda row: row.replace(" ", "  ", 1),
    lambda row: row.replace(" ", "", 1),
    lambda row: row.replace(" ", " x ", 1),
    lambda row: row.replace(" ", " 99 ", 1).rsplit(" ", 1)[0],
], ids=["trailing-cr", "trailing-space", "form-feed", "plus-zero", "inner-cr", "nul",
        "hash", "double-space", "joined", "extra-token", "out-of-range"])
def test_the_table_parses_whole_or_is_refused_at_a_line(edit):
    # the row check only raises: a table whose rows all pass it one by one
    # would have passed the whole-table parse
    g = groups.named("symmetric", 3)
    rows = [" ".join(map(str, row)) for row in g.table.tolist()]
    rows[4] = edit(rows[4])
    try:
        table = groups._parse_table(rows, g.order)
    except FileFormatError as exc:
        assert exc.line == 8
    else:
        assert np.array_equal(table, g.table)


def test_a_table_the_row_check_passes_is_refused_without_a_line(monkeypatch):
    monkeypatch.setattr(groups, "_check_rows", lambda rows, order: None)
    with pytest.raises(FileFormatError, match="pass one by one") as err:
        groups._parse_table(["x"], 1)
    assert err.value.line is None


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\r\nb"])
def test_save_refuses_a_name_with_a_line_break(tmp_path, name):
    # the loader reads a line break in the name as the end of the name line
    g = groups.from_table(groups.named("cyclic", 2).table, name=name)
    with pytest.raises(ValueError, match="line break"):
        groups.save_group(g, str(tmp_path / "g.grp"))
    assert list(tmp_path.iterdir()) == []


def test_a_failing_chunk_leaves_no_file(tmp_path):
    # an error that is no OSError is re-raised as it is, once the temp file
    # is removed; the target is never created. The writer takes bytes only,
    # so a str fails at the write, after the temp file is opened
    with pytest.raises(TypeError, match="bytes-like object is required"):
        textfile.write_atomic(str(tmp_path / "out.txt"), "text\n")
    assert list(tmp_path.iterdir()) == []


def test_load_revalidates_table(tmp_path):
    # a well-formed file holding a non-group must still be rejected
    path = tmp_path / "loop.grp"
    rows = "\n".join(" ".join(str(v) for v in row) for row in NONASSOC_LOOP)
    path.write_text(f"quasirep-group v1\nname=loop\norder=5\n{rows}\n")
    with pytest.raises(FileFormatError, match="not a group"):
        groups.load_group(str(path))


def test_load_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "bad.grp"
    groups.save_group(groups.named("symmetric", 3), str(path))
    data = bytearray(path.read_bytes())
    fifth_line = [i for i, b in enumerate(data) if b == ord("\n")][3] + 1
    data[fifth_line + 2] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="byte 0xff is not UTF-8") as err:
        groups.load_group(str(path))
    assert err.value.line == 5


@pytest.fixture(scope="module")
def s3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("grp") / "s3.grp"
    groups.save_group(groups.named("symmetric", 3), str(path))
    return path.read_bytes()


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_group_file_is_rejected_or_unchanged(tmp_path, s3_file, data):
    # every truncation or single-byte overwrite of a saved group either
    # raises FileFormatError or still loads the original table
    at = data.draw(st.integers(0, len(s3_file) - 1), label="at")
    byte = data.draw(st.none() | st.integers(0, 255), label="byte")
    if byte is None:
        damaged = s3_file[:at]
    else:
        damaged = s3_file[:at] + bytes([byte]) + s3_file[at + 1:]
    path = tmp_path / "s3.grp"
    path.write_bytes(damaged)
    try:
        back = groups.load_group(str(path))
    except FileFormatError:
        return
    assert np.array_equal(back.table, groups.named("symmetric", 3).table)
    assert groups.group_hash(back) == groups.group_hash(groups.from_table(back.table))


@pytest.mark.parametrize("edit", [
    lambda rows: rows.replace(" 5 ", " 05 ", 1),
    lambda rows: rows.replace(" 5 ", " +5 ", 1),
    lambda rows: rows.replace(" ", "\t", 1),
    lambda rows: rows.replace(" ", "\u00a0", 1),
    lambda rows: rows.replace("\n", " \n", 1),
    lambda rows: rows[:-1],
    lambda rows: rows.replace(" 5 ", " 05 ", 1)[:-1],
    lambda rows: rows.replace(" 5 ", " +5 ", 1)[:-1],
    lambda rows: rows.replace("\n", "\t\n", 1)[:-1],
    lambda rows: rows.replace("\n", "\r\n"),
    lambda rows: rows.replace("\n", "\r"),
    lambda rows: rows,
], ids=["leading-zero", "plus-sign", "tab", "nbsp", "trailing-space", "no-last-newline",
        "leading-zero-no-last-newline", "plus-sign-no-last-newline",
        "trailing-tab-no-last-newline", "crlf", "cr", "as-saved"])
def test_a_loaded_group_hashes_as_its_table(tmp_path, edit):
    # every spelling of the table that loads has the digest of the table
    g = groups.named("psl2", 7)
    path = tmp_path / "g.grp"
    groups.save_group(g, str(path))
    header, _, rows = path.read_text(encoding="utf-8").partition("order=168\n")
    path.write_bytes((header + "order=168\n" + edit(rows)).encode("utf-8"))
    back = groups.load_group(str(path))
    assert np.array_equal(back.table, g.table)
    assert groups.group_hash(back) == groups.group_hash(groups.from_table(back.table))
    assert groups.group_hash(back) == PINNED_DIGESTS[("psl2", 7)]


def classes_by_definition(g):
    """The classes by definition: x's class is named by min over h of h x h^-1;
    the identity's class first, then the others by smallest member."""
    smallest = g.table[g.table, g.inverses[:, None]].min(axis=0)
    names = [g.identity, *sorted(set(smallest.tolist()) - {g.identity})]
    return tuple(tuple(np.flatnonzero(smallest == r).tolist()) for r in names)


def assert_classes_by_definition(g):
    classes = classes_by_definition(g)
    assert g.classes == classes
    assert all(type(x) is int for c in g.classes for x in c)
    assert [set(np.flatnonzero(g.class_of == i).tolist()) for i in range(len(classes))] == [
        set(c) for c in classes]


def relabelled(table, seed):
    perm = np.random.default_rng(seed).permutation(len(table))     # new label of old x
    inverse = np.argsort(perm)
    return perm[table[np.ix_(inverse, inverse)]]


# the small groups of test_irreps and the trivial group; a product of two
# stays below the order cap
PARTITION_FACTORS = [("cyclic", 1), ("symmetric", 3), ("quaternion8",), ("dihedral", 4),
                     ("alternating", 4), ("cyclic", 5), ("heisenberg", 3), ("sl2", 3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PARTITION_FACTORS), st.sampled_from(PARTITION_FACTORS),
       st.none() | st.integers(min_value=0, max_value=2**32 - 1))
def test_conjugacy_classes_match_the_definition(spec1, spec2, seed):
    table = groups.product(groups.named(*spec1), groups.named(*spec2)).table
    assert_classes_by_definition(groups.from_table(
        table if seed is None else relabelled(table, seed)))


@pytest.mark.parametrize("spec", [("dihedral", 350), ("psl2", 11), ("cyclic", 700)],
                         ids=["dihedral350", "psl2_11", "cyclic700"])
@pytest.mark.parametrize("seed", [None, 7], ids=["as-built", "relabelled"])
def test_conjugacy_classes_of_wide_groups_match_the_definition(spec, seed):
    # dihedral(350)'s reflections form two classes of 175, which the label
    # loop joins over many sweeps
    table = groups.named(*spec).table
    assert_classes_by_definition(groups.from_table(
        table if seed is None else relabelled(table, seed)))


def test_inverse_and_class_invariants(a5):
    # x * x^-1 = e and conjugation permutes each class
    for x in range(a5.order):
        assert a5.table[x, a5.inverses[x]] == a5.identity
    assert sum(len(c) for c in a5.classes) == a5.order
    assert a5.classes[0] == (a5.identity,)


def test_classes_start_with_the_identity():
    # relabel S4 so that the identity is not element 0
    g = groups.named("symmetric", 4)
    perm = np.roll(np.arange(g.order), 5)        # new label of old x
    inverse = np.argsort(perm)
    h = groups.from_table(perm[g.table[inverse][:, inverse]])
    assert h.identity == perm[g.identity] != 0
    assert h.classes[0] == (h.identity,)
    assert sorted(sorted(perm[list(c)]) for c in g.classes) == [
        list(c) for c in sorted(h.classes)]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=24))
def test_cyclic_axioms(n):
    g = groups.named("cyclic", n)
    assert g.order == n
    xs = range(min(n, 6))
    for x in xs:
        for y in xs:
            for z in xs:
                assert g.table[g.table[x, y], z] == g.table[x, g.table[y, z]]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_dihedral_order_and_identity(n):
    g = groups.named("dihedral", n)
    assert g.order == 2 * n
    assert all(g.table[g.identity, x] == x for x in range(g.order))
