"""Finite groups as dense multiplication tables.

A group of order n is stored as an n x n integer table over element indices
0..n-1, validated on construction (two-sided identity, inverses,
associativity, which make the table a Latin square) together with its
conjugacy classes. A FiniteGroup is a frozen dataclass: no attribute can be
rebound or deleted once it is built, and its arrays are read-only.

Construction routes: a raw table, closure of permutation generators, a
handful of named families, and direct products. Every generated family is a
permutation group: symmetric and alternating groups on n points, dihedral
groups on the n-gon's vertices, SL2(p) and the Heisenberg group on the nonzero
vectors of F_p^2 and F_p^3, PSL2(p) by z -> (az + b)/(cz + d) on the
projective line, and the quaternion group by left multiplication on its eight
elements. Cyclic groups and direct products are filled as tables. A
line-oriented text format with a strict loader round-trips tables to disk, and
a SHA-256 digest of the table identifies a group.

Table entries are integers in one grammar: in a file, the decimal tokens
np.loadtxt reads as int64 (ASCII digits, an optional sign, whitespace between),
any other token rejected with its line number; in an array, an integer dtype.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ClosureCapExceeded,
    FileFormatError,
    NotAGroup,
    UnsupportedParameter,
)
from .textfile import read_lines, write_atomic

__all__ = [
    "FiniteGroup",
    "from_table",
    "from_permutation_generators",
    "named",
    "check_family",
    "product",
    "save_group",
    "load_group",
    "group_hash",
    "CLOSURE_CAP",
]

CLOSURE_CAP = 5000

GROUP_MAGIC = "quasirep-group v1"


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group over indices 0..order-1, frozen once built.

    A frozen dataclass: no attribute can be assigned or deleted after the
    constructor returns, and every array it holds is read-only, so the
    digest, the element orders, the classes and the tree stay those of the
    table. The digest (group_hash) and element_orders are formed on first
    use and kept; they are the only slots written after construction.

    Attributes:
        name: human-readable label ("alternating(5)", "table", ...).
        order: number of elements.
        table: (order, order) int array, table[x, y] = x * y.
        identity: index of the neutral element.
        inverses: int array, table[x, inverses[x]] = identity.
        classes: tuple of tuples, conjugacy classes as sorted index tuples,
            the class of the identity first.
        class_of: int array mapping each element to its class index.
        generators: element indices that generate the group, the ones
            Light's associativity test checked (see _check_associativity).
        tree: the layers of _cayley_tree over the generators from the
            identity, Light's last walk, as a tuple; its arrays are read-only,
            and len(tree) is the tree's depth D.
    """

    name: str
    table: np.ndarray
    identity: int
    inverses: np.ndarray
    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    generators: tuple[int, ...]
    tree: tuple

    def __post_init__(self):
        object.__setattr__(self, "identity", int(self.identity))
        object.__setattr__(self, "tree", tuple(self.tree))
        for arr in (self.table, self.inverses, self.class_of,
                    *(a for layer in self.tree for a in layer)):
            arr.setflags(write=False)

    @cached_property
    def _digest(self) -> str:
        """group_hash's digest, rendered on first use."""
        digest = hashlib.sha256(b"quasirep-group\n%d\n" % self.order)
        digest.update(_table_rows(self.table))
        return digest.hexdigest()

    @cached_property
    def element_orders(self) -> np.ndarray:
        """The order of every element, the least t >= 1 with x^t = e: formed
        on first use and kept read-only, so every reader gets the same array."""
        elements = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        power, t = elements, 1
        while not orders.all():
            orders[(power == self.identity) & (orders == 0)] = t
            power, t = self.table[power, elements], t + 1
        orders.setflags(write=False)
        return orders

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def squares(self) -> np.ndarray:
        """Index array of x*x for every x."""
        return self.table.diagonal()

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _find_identity(table: np.ndarray) -> int:
    want = np.arange(len(table))
    both = (table == want).all(axis=1) & (table.T == want).all(axis=1)
    if not both.any():
        raise NotAGroup("no two-sided identity element")
    return int(np.argmax(both))


def _check_associativity(table: np.ndarray, identity: int) -> tuple[tuple[int, ...], list]:
    """Light's test: (x*s)*y = x*(s*y) for all x, y and each s of a generating set.

    The passing s are closed under products and include the identity, so it
    suffices that the s reach every element from the identity. Each s (the
    smallest element not yet reached) is checked before it extends the reached
    set H, the elements the checked s generate, which _cayley_tree walks anew
    from the identity. Returns the generating set and the last walk's tree.

    The caller has checked a two-sided identity e and a left inverse for
    every element, and nothing else: no Latin-square pass is needed, and the
    loop stays short on a table that is no group. H is a finite associative
    monoid. If f in H has f*f = f and u*f = e, then f = (u*f)*f = u*(f*f) = e,
    so e is H's only idempotent. Every element of a finite monoid has an
    idempotent power, so every element of H is invertible in H: H is a group.
    A passing s outside H makes a new group H' holding H and s, so |H'| is a
    multiple of |H| above it: each passing check at least doubles |H|, for at
    most floor(log2 n) passing checks and walks and one failing check. A
    table that passes them all is associative with an identity and left
    inverses, so it is a group, and a group's table is a Latin square.
    """
    n = len(table)
    # the products are compared on a copy of the fewest bytes per entry
    # (uint16 at every supported order); the index arrays stay n long
    narrow = table.astype(np.min_scalar_type(n - 1))
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    tree: list = []
    while not reached.all():
        s = int(np.argmin(reached))
        lhs = narrow[table[:, s]]           # lhs[x, y] = (x*s)*y
        rhs = narrow[:, table[s]]           # rhs[x, y] = x*(s*y)
        if not np.array_equal(lhs, rhs):
            x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise NotAGroup(f"associativity fails at (x, y, z) = ({x}, {s}, {y})")
        gens.append(s)
        tree = _cayley_tree(table[:, gens], identity)
        reached[np.concatenate([children for children, _, _ in tree])] = True
    return tuple(gens), tree


def _conjugacy_partition(table: np.ndarray, inverses: np.ndarray, identity: int,
                         generators: Sequence[int]
                         ) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Conjugacy classes as sorted tuples, the identity's first, then by
    smallest member; and class_of, each element's class index.

    The classes are the orbits of the group acting on itself by conjugation,
    and conjugation by a product is the composition of the conjugations by
    its factors, so the orbits under the generators' conjugations
    x -> s*x*s^-1 (and their inverses x -> s^-1*x*s) are the classes. Each
    element's label starts as itself and only falls, label = min(label,
    label[c]) over each conjugation c, with a pointer jump label[label]
    after every sweep; a label always lies in its element's orbit. When a
    sweep changes no label, each label is at most the label of every
    conjugate, so it is constant along every edge, hence on each orbit, and
    equals the orbit's smallest member. The classes are numbered in order
    of their labels, and one stable argsort of the class numbers lists the
    members of each in ascending order.
    """
    gens = np.asarray(generators, dtype=np.intp)
    conjugations = np.concatenate([
        table[table[gens], inverses[gens][:, None]],    # s*x*s^-1
        table[table[inverses[gens]], gens[:, None]],    # s^-1*x*s
    ])
    label = np.arange(len(table))
    while True:
        before = label
        for c in conjugations:
            label = np.minimum(label, label[c])
        label = label[label]
        if np.array_equal(label, before):
            break
    label[identity] = -1                        # the class {identity} comes first
    _, class_of = np.unique(label, return_inverse=True)
    members = np.argsort(class_of, kind="stable").tolist()
    bounds = np.cumsum(np.bincount(class_of)).tolist()
    classes = tuple(tuple(members[a:b]) for a, b in zip([0, *bounds], bounds))
    return classes, class_of


def from_table(table, name: str = "table") -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    Entries must have an integer dtype; any other (float, bool, str, complex,
    object) raises NotAGroup naming it rather than being cast. Raises
    NotAGroup with a witness (an entry, an element, or a triple) when any
    axiom fails. Associativity is checked exactly at every order.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotAGroup(f"table must be square, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise NotAGroup(f"table entries must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64)
    n = len(arr)
    if n == 0:
        raise NotAGroup("empty table")
    if arr.min() < 0 or arr.max() >= n:
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise NotAGroup(f"entry at ({bad[0]}, {bad[1]}) is outside 0..{n - 1}")
    identity = _find_identity(arr)
    inverses = np.argmax(arr == identity, axis=1)
    bad = np.flatnonzero(arr[inverses, np.arange(n)] != identity)
    if len(bad):
        raise NotAGroup(f"element {bad[0]} has no two-sided inverse")
    generators, tree = _check_associativity(arr, identity)
    classes, class_of = _conjugacy_partition(arr, inverses, identity, generators)
    return FiniteGroup(name, arr, identity, inverses, classes, class_of, generators, tree)


def _cayley_tree(right: np.ndarray, root: int) -> list[tuple[np.ndarray, ...]]:
    """Breadth-first tree of the Cayley graph from root, the one walk that
    Light's test, closure, irrep restriction and homomorphism extension share.

    right is an (n, k) array of right multiplications by k generators,
    right[x, j] = x * s_j. One (children, parents, steps) triple per layer,
    with right[parents, steps] = children and every parent in an earlier
    layer, the root in the first; no layer is empty, so the number of layers
    is the tree's depth. Elements the generators do not reach from root are
    in no layer.
    """
    n, k = right.shape
    reached = np.zeros(n, dtype=bool)
    reached[root] = True
    frontier = np.array([root])
    layers = []
    while k:
        children, first = np.unique(right[frontier].ravel(), return_index=True)
        new = ~reached[children]
        if not new.any():
            break
        children, first = children[new], first[new]
        reached[children] = True
        layers.append((children, frontier[first // k], first % k))
        frontier = children
    return layers


def from_permutation_generators(degree: int, generators: Iterable[Sequence[int]],
                                name: str = "permgroup") -> FiniteGroup:
    """Group generated by permutations of 0..degree-1 (image tuples).

    The product a * b applies b first, then a. Breadth-first discovery
    under right multiplication numbers the elements, the identity first, and
    records right[i, k], the index of element i times generator k. Since
    x * (p * s) = (x * p) * s, the columns of a layer of the Cayley tree
    (_cayley_tree) are one gather of right at the columns of their parents,
    filled in earlier layers. Raises ClosureCapExceeded once the closure
    passes CLOSURE_CAP elements, a fixed cap.
    """
    gens = []
    for g in generators:
        t = tuple(int(v) for v in g)
        if sorted(t) != list(range(degree)):
            raise UnsupportedParameter(f"{t} is not a permutation of 0..{degree - 1}")
        gens.append(t)
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    right = []
    for e in elements:                      # the loop sees appended elements
        for s in gens:
            p = tuple([e[x] for x in s])
            if p not in index:
                if len(elements) >= CLOSURE_CAP:
                    raise ClosureCapExceeded(
                        f"closure exceeded cap of {CLOSURE_CAP} elements")
                index[p] = len(elements)
                elements.append(p)
            right.append(index[p])
    n = len(elements)
    right = np.array(right, dtype=np.int64).reshape(n, len(gens))
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for children, parents, steps in _cayley_tree(right, 0):
        table[:, children] = right[table[:, parents], steps]
    return from_table(table, name=name)


def _generated(name: str, degree: int, generators, order: int) -> FiniteGroup:
    """Close the generators and check that the group has the expected order."""
    group = from_permutation_generators(degree, generators, name=name)
    if group.order != order:
        raise NotAGroup(f"{name} closure has {group.order} elements, expected {order}")
    return group


def _linear(p: int, matrix) -> tuple[int, ...]:
    """A k x k matrix over F_p acting on the nonzero vectors of F_p^k.

    Vector v is point sum_i v_i p^i - 1, and the matrix sends v to M v.
    """
    m = np.array(matrix)
    weights = p ** np.arange(len(m))
    vectors = np.arange(1, p ** len(m))[:, None] // weights % p
    return tuple((vectors @ m.T % p @ weights - 1).tolist())


def _mobius(p: int, matrix) -> tuple[int, ...]:
    """[[a, b], [c, d]] as z -> (az + b)/(cz + d) on F_p and infinity (point p)."""
    (a, b), (c, d) = matrix

    def quotient(num: int, den: int) -> int:
        return p if den % p == 0 else num * pow(den, -1, p) % p
    return tuple(quotient(a * z + b, c * z + d) for z in range(p)) + (quotient(a, c),)


def _sl2(p: int, projective: bool) -> FiniteGroup:
    """SL2(p) on the nonzero vectors of F_p^2, PSL2(p) on the projective line.

    Both are generated by t = [[1, 1], [0, 1]] and s = [[0, -1], [1, 0]].
    """
    kind = "psl2" if projective else "sl2"
    supported = (5, 7, 11) if projective else (3, 5, 7)
    if p not in supported:
        raise UnsupportedParameter(
            f"{kind} supports p in {', '.join(map(str, supported))}, got {p}")
    t, s = ((1, 1), (0, 1)), ((0, p - 1), (1, 0))
    order = p * (p - 1) * (p + 1)
    if projective:
        return _generated(f"psl2({p})", p + 1, [_mobius(p, t), _mobius(p, s)], order // 2)
    return _generated(f"sl2({p})", p * p - 1, [_linear(p, t), _linear(p, s)], order)


def _heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3 x 3 matrices over F_p on the nonzero vectors of F_p^3."""
    if p not in (3, 5):
        raise UnsupportedParameter(f"heisenberg supports p in 3, 5, got {p}")
    x = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    y = [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    return _generated(f"heisenberg({p})", p ** 3 - 1, [_linear(p, x), _linear(p, y)],
                      p ** 3)


def _quaternion8() -> FiniteGroup:
    """Left multiplication by i and j on 1, i, j, k, -1, -i, -j, -k (points 0..7)."""
    i = (1, 4, 3, 6, 5, 0, 7, 2)
    j = (2, 7, 4, 1, 6, 3, 0, 5)
    return _generated("quaternion8", 8, [i, j], 8)


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedParameter(f"cyclic needs n >= 1, got {n}")
    if n > CLOSURE_CAP:
        raise UnsupportedParameter(f"cyclic({n}) exceeds the order cap {CLOSURE_CAP}")
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return from_table(table, name=f"cyclic({n})")


def _dihedral(n: int) -> FiniteGroup:
    """Rotation and reflection of the n-gon's vertices.

    The vertices of a 1- or 2-gon do not tell the elements apart, so
    dihedral(1) is a swap of 2 points and dihedral(2) the Klein group on 4.
    """
    if n < 1:
        raise UnsupportedParameter(f"dihedral needs n >= 1, got {n}")
    if 2 * n > CLOSURE_CAP:
        raise UnsupportedParameter(f"dihedral({n}) exceeds the order cap {CLOSURE_CAP}")
    small = {1: [(1, 0)], 2: [(1, 0, 3, 2), (2, 3, 0, 1)]}
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    gens = small.get(n, [rot, ref])
    return _generated(f"dihedral({n})", len(gens[0]), gens, 2 * n)


def _symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise UnsupportedParameter(f"symmetric supports 1 <= n <= 6, got {n}")
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    gens = [swap, cycle] if n > 1 else []
    return _generated(f"symmetric({n})", n, gens, math.factorial(n))


def _alternating(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:
        raise UnsupportedParameter(f"alternating supports 1 <= n <= 6, got {n}")
    three = (1, 2, 0) + tuple(range(3, n))
    if n <= 2:
        gens = []           # A1 and A2 are trivial; 1! // 2 is 0, hence the max
    elif n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, tuple(range(1, n)) + (0,)]
    else:
        # even n: an n-cycle is odd, use the (n-1)-cycle fixing point 0
        gens = [three, (0,) + tuple(range(2, n)) + (1,)]
    return _generated(f"alternating({n})", n, gens, max(1, math.factorial(n) // 2))


def product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with index (a1, a2) -> a1 * |G2| + a2."""
    n1, n2 = g1.order, g2.order
    if n1 * n2 > CLOSURE_CAP:
        raise UnsupportedParameter(
            f"product order {n1 * n2} exceeds the cap {CLOSURE_CAP}")
    t1, t2 = g1.table, g2.table
    table = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n1 * n2, n1 * n2)
    return from_table(table, name=f"product({g1.name},{g2.name})")


_FAMILIES: dict[str, Callable] = {
    "cyclic": _cyclic,
    "dihedral": _dihedral,
    "symmetric": _symmetric,
    "alternating": _alternating,
    "quaternion8": _quaternion8,
    "heisenberg": _heisenberg,
    "sl2": lambda p: _sl2(p, projective=False),
    "psl2": lambda p: _sl2(p, projective=True),
}


def named(family: str, *params) -> FiniteGroup:
    """Build a named family member: named("alternating", 5), named("quaternion8"), ...

    Supported families: cyclic(n), dihedral(n), symmetric(n<=6), alternating(n<=6),
    quaternion8, heisenberg(p in {3,5}), sl2(p in {3,5,7}), psl2(p in {5,7,11}).
    Direct products come from product(g1, g2).
    """
    check_family(family, len(params))
    return _FAMILIES[family](*params)


def check_family(family: str, count: int) -> None:
    """Raise UnsupportedParameter unless family is known and takes count parameters."""
    if family not in _FAMILIES:
        raise UnsupportedParameter(
            f"unknown family {family!r}; know {sorted(_FAMILIES)}")
    arity = len(inspect.signature(_FAMILIES[family]).parameters)
    if count != arity:
        raise UnsupportedParameter(
            f"{family} takes {arity} parameter(s), got {count}")


def _table_rows(table: np.ndarray) -> bytes:
    """The table as space-joined ASCII rows, each ending in a newline.

    Rendered in one pass: the token "{i} " of each element i is zero padded
    to one machine word, uint32 while the widest token fits in 4 bytes
    (order up to 1000) and uint64 above. One integer gather of the words by
    the table lays out every entry, whatever the table's memory order, since
    the gathered words are made C-contiguous before they are read as bytes.
    The last column's space becomes the newline, and dropping the zero
    padding leaves the text: byte for byte what joining str(entry) per row
    gives.
    """
    n = len(table)
    width = len(b"%d " % (n - 1))
    word = np.dtype(np.uint32 if width <= 4 else np.uint64)
    words = np.array([b"%d " % i for i in range(n)], dtype=f"S{word.itemsize}")
    text = np.ascontiguousarray(words.view(word)[table]).view(np.uint8)
    last = text.reshape(n, n, word.itemsize)[:, -1]
    last[last == ord(" ")] = ord("\n")
    return text[text != 0].tobytes()


def group_hash(group: FiniteGroup) -> str:
    """SHA-256 hex digest of the multiplication table in canonical text form.

    The canonical text is "quasirep-group", the order and the rows of
    _table_rows, each on its own line. Computed once per group object and
    remembered on it.
    """
    return group._digest


def save_group(group: FiniteGroup, path: str) -> None:
    """Write the line-oriented group format (atomic: write then rename).

    A name holding a line break would not read back, so it raises ValueError
    before anything is written.
    """
    for brk in ("\n", "\r"):
        if brk in group.name:
            raise ValueError(f"group name {group.name!r} holds the line break {brk!r}")
    header = f"{GROUP_MAGIC}\nname={group.name}\norder={group.order}\n"
    write_atomic(path, header.encode("utf-8") + _table_rows(group.table))


def load_group(path: str) -> FiniteGroup:
    """Strict loader for the group format; any deviation raises FileFormatError.

    Table entries are decimal int64 tokens as np.loadtxt reads them (ASCII
    digits, an optional sign). One pass parses the table (_parse_table); only
    a table it refuses is read row by row, which names the first bad line.
    The table is validated in full by from_table, as any other table is,
    and its digest is rendered from the table when first asked, as a built
    group's is, whatever the spelling of the file.
    """
    lines = read_lines(path, GROUP_MAGIC)
    if len(lines) < 3:
        raise FileFormatError("missing name/order lines", line=len(lines))
    if not lines[1].startswith("name="):
        raise FileFormatError("expected name=<label>", line=2)
    name = lines[1][len("name="):]
    if not lines[2].startswith("order="):
        raise FileFormatError("expected order=<n>", line=3)
    try:
        order = int(lines[2][len("order="):])
    except ValueError:
        raise FileFormatError("order is not an integer", line=3) from None
    if order < 1:
        raise FileFormatError(f"order must be positive, got {order}", line=3)
    if len(lines) != 3 + order:
        raise FileFormatError(
            f"expected {order} table rows, file has {len(lines) - 3}", line=len(lines))
    table = _parse_table(lines[3:], order)
    try:
        return from_table(table, name=name)
    except NotAGroup as exc:
        raise FileFormatError(f"table is not a group: {exc}") from exc


def _parse_table(rows: list[str], order: int) -> np.ndarray:
    """The table rows of a group file as an (order, order) array.

    A well-formed table is parsed by one np.loadtxt call and one range check.
    A table that call refuses, or of the wrong shape or range, is read again
    one row at a time by _check_rows, which names the first bad line. It
    always finds one (see _check_rows); were it not to, the table is still
    refused, with no line named.
    """
    try:
        table = _loadtxt(rows)
    except (ValueError, Warning):
        table = None
    if (table is not None and table.shape == (order, order)
            and table.min() >= 0 and table.max() < order):
        return table
    _check_rows(rows, order)
    raise FileFormatError("the table rows pass one by one but not as a whole")


def _loadtxt(rows: list[str]) -> np.ndarray:
    """The rows as a 2-d int64 array of decimal tokens; a warning raises."""
    # loadtxt skips blank lines and warns when no line is left, and some numpy
    # releases warn rather than refuse when they read an integer through a
    # float ("5.0"); each warning raises, so such a table is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)


def _check_rows(rows: list[str], order: int) -> None:
    """Raise FileFormatError at the first row that is not order decimal
    tokens in 0..order-1.

    It only raises: it runs on a table the whole-table np.loadtxt call
    refused or found of the wrong shape or range, and such a table has a
    row that fails here. That call reads each line with the same tokenizer
    as the one-row call here (no comments, the same whitespace), and
    load_group has checked that there are order rows. It refuses a table
    only for a line that does not convert, for lines of unequal length, or
    for a warning, and if every row converts alone to order tokens, none of
    those happens: it returns the rows stacked, an (order, order) array in
    range.
    """
    for r, row in enumerate(rows):
        lineno = 4 + r
        count = len(row.split())    # loadtxt splits on the same whitespace
        if count != order:
            raise FileFormatError(f"row has {count} entries, expected {order}",
                                  line=lineno)
        try:
            values = _loadtxt([row]).reshape(order)
        except (ValueError, Warning):
            raise FileFormatError("non-integer table entry", line=lineno) from None
        outside = np.flatnonzero((values < 0) | (values >= order))
        if len(outside):
            raise FileFormatError(f"entry {values[outside[0]]} outside 0..{order - 1}",
                                  line=lineno)
