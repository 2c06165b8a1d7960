"""Finite groups as immutable Cayley tables over dense element indices.

Elements of a group of order n are the integers 0..n-1 with identity 0;
``table[a][b]`` is the index of the product a*b. Constructors cover the
classical families (cyclic, elementary abelian, dihedral, generalized
quaternion, quasi-dihedral, modular, elementary-abelian-by-cyclic,
metacyclic, Heisenberg) plus permutation-generator closure, direct
products and quotients. Every constructor gives only the right
multiplications u -> u*g by a few generators g; ``_tree_group`` keeps
their BFS tree, from which left multiplication and each table row follow,
a row built on first use; nothing is solved from a presentation. All
nine families are one product A ⋊ <y>, ``_split``, of an abelian A given
by its moduli (k copies of p for F_p^k, one m for <x> = Z_m) and a wrap
vector y^q in A (nonzero only for Q). Direct products and relabelled
copies are built along the tree of their factors' generators; only
``quotient`` and ``subgroup_as_group`` fill a table. Each constructor
checks its order against the guardrail before any primality test or
large power.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

from ._record import Frozen
from .errors import GuardrailExceeded
from .intmath import factorize, is_prime, multiplicative_order

DEFAULT_MAX_ORDER = 512

# The guardrails: each kind of work -> (its default cap, the cap's name in
# errors). "order", "lattice" and "sections" are also cli.Caps' fields.
_GUARDS = {
    "order": (DEFAULT_MAX_ORDER, "max order"),  # building a group
    "cyclic": (DEFAULT_MAX_ORDER, "cyclic-poset max order"),  # csd, cyclic_subgroups
    "lattice": (256, "lattice max order"),  # the full lattice and all that needs it
    "sections": (128, "sections max order"),  # csd_star and sections
}


def _cap(max_order: int | None, work: str = "order") -> int:
    return _GUARDS[work][0] if max_order is None else max_order


def _check_order(order: int, max_order: int | None, work: str = "order") -> None:
    """Raise GuardrailExceeded if ``order`` is over the cap on ``work`` (a key
    of ``_GUARDS``): ``max_order``, or the work's default when it is None.
    Every guarded entry calls this before it does any work."""
    cap = _cap(max_order, work)
    if order > cap:
        raise GuardrailExceeded(f"order {order} exceeds {_GUARDS[work][1]} {cap}")


def _check_power_order(p: int, k: int, max_order: int | None, factor: int = 1) -> int:
    """The order factor * p^k (p >= 2, k >= 0), once it passes the guardrail.
    An exponent at or past the cap's bit length is over it, as p^k >= 2^k,
    and is reported without forming the power."""
    cap = _cap(max_order)
    if k >= cap.bit_length():
        shown = f"{p}^{k}" if factor == 1 else f"{p}^{k}*{factor}"
        raise GuardrailExceeded(f"order {shown} exceeds {_GUARDS['order'][1]} {cap}")
    order = factor * p**k
    _check_order(order, max_order)
    return order


class FiniteGroup:
    """Immutable multiplication table with precomputed element metadata.

    Attributes:
        order: number of elements.
        table: order x order tuple-of-tuples, ``table[a][b] = a*b``.
        identity: always 0.
        inverse: inverse[a] is the index of a^-1.
        elem_order: elem_order[a] is the least k >= 1 with a^k = identity.
        label: descriptive name, e.g. "D(8)" or "Z(4)xQ(8)".

    A group built along a generator tree (see ``_tree_group``) keeps
    the tree, and its generators' right multiplications ``_rights``:
    row a is built on first use, by one gather from its parent's row
    (``_row``), and reading ``table`` builds the missing rows once. A group
    given a full table has every row from the start. ``mul``, ``power``,
    ``Subgroup.check`` and ``lattice.product_set`` read only the rows they
    use, so csd and d of a large group build few rows.

    Element orders, inverses and ``_cyclic_of[a]`` (the mask of <a>) come
    from one power walk, on the element's own row, per conjugacy class of
    cyclic subgroups; the whole-group conjugation maps (``_conj_maps``) carry
    each walk to the rest of its class. The walk keeps those classes in
    ``_cyclic_classes``: each is a list of power lists [0, a, a^2, ...],
    the walked <a> first, and the trivial subgroup [0] is a class of its
    own, so L1(G) is every power list and csd counts its pairs from these
    classes (``lattice._cyclic_pairs``) without sorting them into
    Subgroups. Never mutated after construction, apart from the rows and
    private caches: that count (``_cyclic_pairs``) and the collections that
    lattice.cyclic_subgroups and lattice.subgroup_lattice return
    (``_cyclic_poset``, ``_lattice``). The cached Subgroups hold the group,
    a reference cycle that the cyclic garbage collector frees.
    """

    __slots__ = (
        "order",
        "identity",
        "inverse",
        "elem_order",
        "label",
        "_rows",
        "_table",
        "_tree",
        "_rights",
        "_cyclic_of",
        "_conj_maps",
        "_cyclic_classes",
        "_cyclic_pairs",
        "_cyclic_poset",
        "_lattice",
    )

    def __init__(self, table: Sequence[Sequence[int]], label: str):
        n = len(table)
        if n == 0:
            raise ValueError("group must have at least one element")
        self.order = n
        # tuple() returns a tuple row itself, so the derived constructions copy nothing
        self._rows = self._table = t = tuple(tuple(row) for row in table)
        self._tree = None
        if any(len(row) != n for row in t):
            raise ValueError(f"table for {label!r} is not square")
        for a in range(n):
            if t[0][a] != a or t[a][0] != a:
                raise ValueError(f"element 0 is not an identity in table for {label!r}")
        self._walk_elements(label, None)

    @classmethod
    def _from_tree(
        cls, parent: list[int], step: list, rights: list[list[int]], label: str
    ) -> FiniteGroup:
        """The group whose row w is ``step[w](row of parent[w])``, built on
        first use; ``rights`` are the maps x -> x*g of its generators g."""
        self = cls.__new__(cls)
        n = self.order = len(parent)
        self._rows = [None] * n
        self._rows[0] = tuple(range(n))
        self._table = None
        self._tree = (parent, step)
        self._walk_elements(label, rights)
        return self

    def _walk_elements(self, label: str, rights: list[list[int]] | None) -> None:
        """Fill the element data (see the class docstring) and the whole-group
        conjugation maps, from the generators' right multiplications
        ``rights`` or, given None, from the greedy chain and the table's
        columns. Element 1 is walked before the maps are built, so a table
        that is not a group is named by that walk, not by a closure. Each
        class of cyclic subgroups is kept as its power lists, in the order
        the maps reach them (``_cyclic_classes``)."""
        n = self.order
        self.identity = 0
        self.label = label
        inverse, elem_order, cyclic_of, units = [0] * n, [1] * n, [1] * n, {}
        classes = [[[0]]]

        def fill(powers: list[int]) -> None:
            # each a^k with gcd(k, o) = 1 has order o, inverse a^(o-k) and <a^k> = <a>
            o = len(powers)
            if o not in units:
                units[o] = [k for k in range(1, o) if math.gcd(k, o) == 1]
            mask = _mask_of(powers)
            for k in units[o]:
                y = powers[k]
                elem_order[y], inverse[y], cyclic_of[y] = o, powers[o - k], mask

        maps = None
        for a in range(1, n):
            if elem_order[a] > 1:
                continue
            walk = self._powers(a)
            fill(walk)
            if maps is None:
                if rights is None:
                    rights = _right_maps(self, _generator_chain(self, range(n))[1])
                maps = _maps_through(self, rights)
            # conjugation is an automorphism: c maps the powers of a to those of c(a)
            todo = [walk]
            for powers in todo:
                for c in maps:
                    image = [c[x] for x in powers]
                    if elem_order[image[1]] == 1:
                        fill(image)
                        todo.append(image)
            classes.append(todo)
        self.inverse = tuple(inverse)
        self.elem_order = tuple(elem_order)
        self._cyclic_of = tuple(cyclic_of)
        self._conj_maps: list[tuple[int, ...]] = maps or []
        self._rights = rights or []
        self._cyclic_classes = classes
        self._cyclic_pairs = None
        self._cyclic_poset = None
        self._lattice = None

    def _powers(self, a: int) -> list[int]:
        """[0, a, a^2, ..., a^(o-1)] (0 the identity) for a != 0, walked on
        a's own row: a^(k+1) = a * a^k."""
        n = self.order
        row = self._row(a)
        powers = [0, a]
        x = row[a]
        while x != 0:
            if not 0 < x < n:
                raise ValueError(
                    f"powers of element {a} reach table entry {x}, out of range 0..{n - 1},"
                    f" in table for {self.label!r}"
                )
            if len(powers) == n:
                raise ValueError(f"powers of element {a} never reach 0 in table for {self.label!r}")
            powers.append(x)
            x = row[x]
        return powers

    def _row(self, a: int) -> tuple[int, ...]:
        """Row a of the table, built with its missing ancestors in the tree."""
        rows = self._rows
        row = rows[a]
        if row is None:
            parent, step = self._tree
            path = []
            while row is None:
                path.append(a)
                a = parent[a]
                row = rows[a]
            for w in reversed(path):
                row = rows[w] = step[w](row)
        return row

    def _built(self) -> int:
        """How many rows of the table are built so far."""
        return self.order - self._rows.count(None)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The whole table; the rows not yet built are built once, here."""
        if self._table is None:
            self._table = self._rows = tuple(map(self._row, range(self.order)))
            self._tree = None
        return self._table

    def _check_index(self, *elems: int) -> None:
        if not all(0 <= a < self.order for a in elems):
            raise IndexError(f"element index out of range for group of order {self.order}")

    def mul(self, a: int, b: int) -> int:
        """Product of elements a and b, read from row a."""
        self._check_index(a, b)
        return self._row(a)[b]

    def inv(self, a: int) -> int:
        self._check_index(a)
        return self.inverse[a]

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k; k counts modulo the order of a. Reads row a."""
        self._check_index(a)
        row = self._row(a)
        acc = 0
        for _ in range(k % self.elem_order[a]):
            acc = row[acc]
        return acc

    @property
    def is_abelian(self) -> bool:
        """True iff every generator is central, i.e. no conjugation map is left."""
        return not self._conj_maps

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


# ---------------------------------------------------------------------------
# Permutations (input format for generator-defined groups)


class Permutation(Frozen):
    """Bijection of {0..d-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        d = len(images)
        if sorted(images) != list(range(d)):
            raise ValueError(f"not a permutation of 0..{d - 1}: {images}")
        self._fill(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self * other)(i) = self(other(i))."""
        if other.degree != self.degree:
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation(tuple(self.images[j] for j in other.images))

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: str | Sequence[Sequence[int]], degree: int) -> Permutation:
        """Build from disjoint cycles: notation such as "(0 1)(2 3)", or a
        sequence of cycles such as ((0, 1), (2, 3)); fixed points omitted.

        "()" denotes the identity. Cycles must be disjoint, and malformed
        notation raises a ValueError naming its position.
        """
        if isinstance(cycles, str):
            from .expr import _cycles  # expr imports this module
            cycles = _cycles(cycles)
        images = _cycle_images(cycles, degree)
        return cls(tuple(images.get(i, i) for i in range(degree)))

    def to_cycles(self) -> str:
        """Canonical disjoint-cycle string: cycles by minimal element, fixed points omitted."""
        orbits = _orbits(self.degree, [self.images], operator.getitem)
        return _cycle_text(o for o in orbits if len(o) > 1)


def _cycle_text(cycles) -> str:
    """Cycles written as "(0 1)(2 3)"; "()" for none."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"


def _cycle_images(cycles: Sequence[Sequence[int]], degree: int) -> dict[int, int]:
    """The image of each point in the disjoint cycles; every point must lie in 0..degree-1."""
    images: dict[int, int] = {}
    for cycle in cycles:
        for k, i in enumerate(cycle):
            if not 0 <= i < degree:
                raise ValueError(f"cycle entry {i} out of range for degree {degree}")
            if i in images:
                raise ValueError(f"cycles are not disjoint: {i} repeats")
            images[i] = cycle[(k + 1) % len(cycle)]
    return images


# ---------------------------------------------------------------------------
# Subgroups as bitsets


class Subgroup:
    """Subgroup of a FiniteGroup, stored as a bitmask over element indices.

    Bit i of ``members`` is set iff element i belongs to the subgroup.
    Construction from a mask is trusted (enumeration code only produces
    closed sets); use :meth:`from_elements` or :meth:`check` when the
    input is not known to be closed.
    """

    __slots__ = ("group", "members", "size", "elems")

    def __init__(self, group: FiniteGroup, members: int):
        self.group = group
        self.members = members
        self.size = members.bit_count()
        self.elems = _elements(members)

    @classmethod
    def _known(cls, group: FiniteGroup, members: int, elems: tuple[int, ...]) -> Subgroup:
        """The subgroup with mask ``members`` whose ascending elements are ``elems``."""
        self = cls.__new__(cls)
        self.group, self.members, self.size, self.elems = group, members, len(elems), elems
        return self

    @classmethod
    def from_elements(cls, group: FiniteGroup, elements) -> Subgroup:
        elements = list(elements)
        group._check_index(*elements)
        sub = cls(group, _mask_of(elements))
        sub.check()
        return sub

    def check(self) -> None:
        """Raise ValueError unless this set really is a subgroup."""
        if not self.members & 1:
            raise ValueError("subgroup does not contain the identity")
        group = self.group
        m = self.members
        for a in self.elems:
            row = group._row(a)
            for b in self.elems:
                if not (m >> row[b]) & 1:
                    raise ValueError(f"set is not closed: {a}*{b} escapes")
        if self.group.order % self.size != 0:
            raise ValueError("size does not divide group order")

    def contains(self, element: int) -> bool:
        return bool((self.members >> element) & 1)

    def __le__(self, other: Subgroup) -> bool:
        return self.members | other.members == other.members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(size={self.size}, members={list(self.elems)})"


def _mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _elements(mask: int) -> tuple[int, ...]:
    elems = []
    while mask:
        lsb = mask & -mask
        elems.append(lsb.bit_length() - 1)
        mask ^= lsb
    return tuple(elems)


def _coset_closure(t, mh, eh, gens, largest_proper, full) -> int:
    """Mask of <H, gens> (``gens`` include a generating set of H): the union
    of the right cosets H*r reached from H by right multiplication with the
    generators, or ``full`` once it passes ``largest_proper`` (Lagrange)."""
    mask = mh
    size = len(eh)
    reps = [0]
    for r in reps:
        row = t[r]
        for s in gens:
            x = row[s]
            if not (mask >> x) & 1:
                for h in eh:
                    mask |= 1 << t[h][x]
                size += len(eh)
                if size > largest_proper:
                    return full
                reps.append(x)
    return mask


def _generator_chain(group: FiniteGroup, candidates) -> tuple[int, list[int]]:
    """Mask of the subgroup generated by ``candidates``, and the greedy
    generators used: each candidate outside the subgroup so far joins it,
    closed by cosets, and at least doubles its order. Stops at G."""
    n = group.order
    full = (1 << n) - 1
    largest_proper = n // min(factorize(n), default=1)
    mask, gens = 1, []
    for g in candidates:
        if (mask >> g) & 1:
            continue
        gens.append(g)
        mask = _coset_closure(group.table, mask, _elements(mask), gens, largest_proper, full)
        if mask == full:
            break
    return mask, gens


def generated_mask(group: FiniteGroup, generators) -> int:
    """Bitmask of the subgroup generated by the given element indices,
    closed by cosets along the greedy chain of ``_generator_chain``."""
    return _generator_chain(group, generators)[0]


def generated_subgroup(group: FiniteGroup, generators) -> Subgroup:
    """Subgroup generated by the given element indices."""
    generators = list(generators)
    group._check_index(*generators)
    return Subgroup(group, generated_mask(group, generators))


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, 1)


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(group, (1 << group.order) - 1)


# ---------------------------------------------------------------------------
# Structure operations


def center(group: FiniteGroup) -> Subgroup:
    """Elements commuting with everything: the one-element conjugacy classes."""
    classes = _orbits(group.order, _conjugation_maps(group), operator.getitem)
    return Subgroup(group, _mask_of(c[0] for c in classes if len(c) == 1))


def derived_subgroup(group: FiniteGroup) -> Subgroup:
    """The derived subgroup G' (see _derived_mask)."""
    return Subgroup(group, _derived_mask(group, range(group.order), _conjugation_maps(group)))


def _derived_mask(group: FiniteGroup, elems, maps) -> int:
    """Mask of the derived subgroup H' of the subgroup H with elements
    ``elems`` and conjugation maps ``maps`` (from ``_conjugation_maps``).

    It is the subgroup K generated by the commutators
    [x, s] = x^-1 s^-1 x s, for every x in H and every generator s of the
    maps. K is normal in H, because y^-1 [x, s] y = [xy, s] [y, s]^-1 lies
    in K for every y. Every generator s is central modulo K (the
    generators without a map are central in H), so H/K is abelian and K
    contains H'; K <= H' holds since K is generated by commutators.
    """
    t = group.table
    inv = group.inverse
    return generated_mask(group, {t[inv[x]][c[x]] for c in maps for x in elems})


def _conjugation_maps(group: FiniteGroup, within: int | None = None) -> list[tuple[int, ...]]:
    """The maps x -> g^-1 x g for a generating set of the group, or of its
    subgroup with mask ``within``.

    The whole group's maps are built with the group and kept on it. A
    tree-built group uses its construction generators: the map of g is the
    row of g^-1 gathered through x -> x*g, which the closure already holds,
    so no other row is read. A group given a full table, and a proper
    subgroup, use the greedy chain over their elements in order, each the
    least element outside the subgroup so far, and the table's columns.
    The orbits of these maps, on elements or on subgroups, are the orbits
    of conjugation by the whole (sub)group. A map fixes it pointwise iff
    its generator commutes with every generator; such maps are never
    built, so an abelian (sub)group gets none.
    """
    if within is None or within == (1 << group.order) - 1:
        return group._conj_maps
    return _maps_through(group, _right_maps(group, _generator_chain(group, _elements(within))[1]))


def _right_maps(group: FiniteGroup, gens) -> list[list[int]]:
    """x -> x*g for each g in ``gens``: the table's column of g."""
    t = group.table
    return [[row[g] for row in t] for g in gens]


def _maps_through(group: FiniteGroup, rights: list[list[int]]) -> list[tuple[int, ...]]:
    """The maps x -> g^-1 (x g) of the generators g that fail to commute
    with another. Each r in ``rights`` is x -> x*g for its generator
    g = r[0], and the map is g^-1's row gathered through r. g^-1 is g's
    last power, since ``group.inverse`` may not be filled yet."""
    right = {r[0]: r for r in rights if r[0]}
    gens = [g for g in right if any(right[g][h] != right[h][g] for h in right)]
    return [operator.itemgetter(*right[g])(group._row(group._powers(g)[-1])) for g in gens]


def _invariant(mask: int, elems, maps) -> bool:
    """True iff every map sends every element of the subgroup into it."""
    return all((mask >> c[x]) & 1 for c in maps for x in elems)


def _orbits(count: int, maps, image) -> list[list[int]]:
    """The orbits of 0..count-1 under the group that ``maps`` generate,
    ``image(c, i)`` the image of i under map c. Each orbit is listed
    breadth-first from its least member, and the orbits are in order of
    that member; under one map, an orbit so listed is its cycle."""
    seen = bytearray(count)
    orbits = []
    for i in range(count):
        if not seen[i]:
            seen[i] = 1
            orbit = [i]
            for j in orbit:
                for c in maps:
                    k = image(c, j)
                    if not seen[k]:
                        seen[k] = 1
                        orbit.append(k)
            orbits.append(orbit)
    return orbits


def is_abelian(group: FiniteGroup) -> bool:
    return group.is_abelian


def is_nilpotent(group: FiniteGroup) -> bool:
    """True iff for each p^k exactly dividing the order, the p-power-order
    elements generate a subgroup of order p^k: a Sylow p-subgroup holding
    every p-element, so the only one, hence normal. Lattice-free."""
    for p, k in factorize(group.order).items():
        pk = p**k
        pelems = [a for a, o in enumerate(group.elem_order) if pk % o == 0]
        if generated_mask(group, pelems).bit_count() != pk:
            return False
    return True


def relabel(group: FiniteGroup, perm: Permutation) -> FiniteGroup:
    """Isomorphic copy with element i renamed perm(i); perm must fix 0.

    Generated by the images p(x) of the group's generators x, with
    p(a)p(x) = p(ax). Useful for testing isomorphism invariance of
    computed quantities.
    """
    if perm.degree != group.order:
        raise ValueError("permutation degree must equal group order")
    if perm.images[0] != 0:
        raise ValueError("relabeling must keep the identity at index 0")
    p = perm.images
    back = sorted(range(group.order), key=p.__getitem__)  # back[p(a)] = a
    rmul = [[p[r[a]] for a in back] for r in group._rights]
    return _tree_group(group.order, rmul, f"{group.label}~relabeled")


# ---------------------------------------------------------------------------
# Cayley tables from generators


def _tree_group(n: int, rmul: list[list[int]], label: str) -> FiniteGroup:
    """The group of order n generated by a few elements g_k, ``rmul[k][u]``
    the index of u*g_k.

    Walks the BFS tree from the identity 0 and keeps it. The tree fixes
    each g_k's row ``lefts[k]``: g_k*0 = g_k, and g_k*w = (g_k*u)*g_j for
    a new element w = u*g_j. Row w is then row_w[v] = u*(g_j*v) =
    row_u[lefts[j][v]], one index gather from its parent's row, built when
    first read (see FiniteGroup), and the n^2 products never run in Python.
    """
    lefts = [[rk[0]] * n for rk in rmul]
    parent, via = [0] * n, [None] * n
    queue = [0]
    for u in queue:
        for j, rj in enumerate(rmul):
            w = rj[u]
            if w and via[w] is None:
                parent[w], via[w] = u, j
                queue.append(w)
                for left in lefts:
                    left[w] = rj[left[u]]
    # itemgetter of n >= 2 indices returns a tuple; with n = 1 it is never
    # called, since the identity row is the only row
    gathers = [operator.itemgetter(*left) for left in lefts]
    step = [None if j is None else gathers[j] for j in via]
    return FiniteGroup._from_tree(parent, step, rmul, label)


def _split(moduli: list[int], q: int, act, wrap: int, gens: list[int], label: str) -> FiniteGroup:
    """The pairs (s, v), s in Z_q and v in Z_m1 x ... x Z_mk (the
    ``moduli``), with (s, v)(t, w) = (s + t, v + A^s w), plus the vector u
    of index ``wrap`` when s + t wraps past q, for the map A = ``act`` on
    coordinate tuples (A^q = 1, A u = u). (s, v) has index s*m1*...*mk + v,
    v in mixed radix with its first coordinate most significant. Right
    multiplication by a generator (t, w) moves whole blocks of indices: it
    translates block s by A^s w into block s + t.
    """
    size = math.prod(moduli)
    vecs = list(itertools.product(*map(range, moduli)))
    index = {v: i for i, v in enumerate(vecs)}
    a_of = [index[act(v)] for v in vecs]

    def shift(y: int) -> list[int]:  # the index of v + y, for each index v
        out = [0]
        for c, m in zip(vecs[y], moduli):
            out = [x * m + (d + c) % m for x in out for d in range(m)]
        return out

    past = shift(wrap) if wrap else range(size)  # v -> v + u
    rmul = []
    for g in gens:
        t, y = divmod(g, size)
        right = []
        for s in range(q):
            right += [(s + t) % q * size + x for x in shift(past[y] if s + t >= q else y)]
            y = a_of[y]
        rmul.append(right)
    return _tree_group(q * size, rmul, label)


def _metacyclic(m: int, k: int, c: int, wrap: int, label: str) -> FiniteGroup:
    """<x, y> with x^m = 1, y^k = x^wrap and y x y^-1 = x^c; x^i y^s has
    index s*m + i. x = 1 (unless m = 1) and y = m (unless k = 1) generate."""
    gens = [g for g in (1 % m, m) if 0 < g < m * k]
    return _split([m], k, lambda v: (v[0] * c % m,), wrap, gens, label)


# ---------------------------------------------------------------------------
# Family constructors


def cyclic(n: int, max_order: int | None = None) -> FiniteGroup:
    """Cyclic group of order n under addition mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    _check_order(n, max_order)
    return _metacyclic(n, 1, 1, 0, f"Z({n})")


def elementary_abelian(p: int, k: int, max_order: int | None = None) -> FiniteGroup:
    """Direct product of k copies of the cyclic group of prime order p."""
    if p < 2:
        raise ValueError(f"elementary abelian base {p} is not prime")
    if k < 1:
        raise ValueError(f"elementary abelian rank must be >= 1, got {k}")
    _check_power_order(p, k, max_order)
    if not is_prime(p):
        raise ValueError(f"elementary abelian base {p} is not prime")
    # the first coordinate is the Z_p factor; the unit vectors generate
    gens = [p ** (k - 1 - i) for i in range(k)]
    return _split([p] * (k - 1), p, lambda v: v, 0, gens, f"Ea({p},{k})")


def dihedral(m: int, max_order: int | None = None) -> FiniteGroup:
    """Dihedral group of order 2m: rotations x^i (indices 0..m-1), reflections x^i y (m..2m-1)."""
    if m < 2:
        raise ValueError(f"dihedral parameter must be >= 2, got {m}")
    _check_order(2 * m, max_order)
    return _metacyclic(m, 2, m - 1, 0, f"D({2 * m})")


def generalized_quaternion(n: int, max_order: int | None = None) -> FiniteGroup:
    """Generalized quaternion group of order 2^n (n >= 3).

    x has order 2^(n-1); y inverts x by conjugation and y^2 = x^(2^(n-2)),
    so y has order 4 and the group has a unique involution.
    """
    if n < 3:
        raise ValueError(f"generalized quaternion needs n >= 3, got {n}")
    size = 2**n
    _check_order(size, max_order)
    m = size // 2
    return _metacyclic(m, 2, m - 1, size // 4, f"Q({size})")


def quasidihedral(n: int, max_order: int | None = None) -> FiniteGroup:
    """Quasi-dihedral (semi-dihedral) group of order 2^n (n >= 4): y^-1 x y = x^(2^(n-2) - 1)."""
    if n < 4:
        raise ValueError(f"quasidihedral needs n >= 4, got {n}")
    size = 2**n
    _check_order(size, max_order)
    m = size // 2
    return _metacyclic(m, 2, size // 4 - 1, 0, f"SD({size})")


def modular_group_M(p: int, n: int, max_order: int | None = None) -> FiniteGroup:
    """Modular (Iwasawa) p-group of order p^n with y^-1 x y = x^(1 + p^(n-2)).

    Requires n >= 3, and n >= 4 when p = 2 (M(8) would be dihedral).
    """
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if n < 3 or (p == 2 and n < 4):
        raise ValueError(f"modular group needs p^n >= p^3 (n >= 4 for p = 2), got p={p}, n={n}")
    size = _check_power_order(p, n, max_order)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = p ** (n - 1)
    # y x y^-1 = x^(c^-1), so that y^-1 x y = x^c holds for c = 1 + p^(n-2)
    return _metacyclic(m, p, pow(1 + p ** (n - 2), -1, m), 0, f"M({size})")


def zm_group(m: int, n: int, r: int, max_order: int | None = None) -> FiniteGroup:
    """Metacyclic group ⟨a,b | a^m = b^n = 1, b a b^-1 = a^r⟩ of order m*n.

    Parameters must satisfy r^n = 1 (mod m) and gcd(m, n(r-1)) = 1; these
    are exactly the groups in which every Sylow subgroup is cyclic.
    Element a^i b^s has index s*m + i.
    """
    if m < 1 or n < 1:
        raise ValueError(f"parameters must be >= 1, got m={m}, n={n}")
    r %= max(m, 1)
    if m == 1:
        r = 0  # degenerate: the group is cyclic of order n
    else:
        if pow(r, n, m) != 1:
            raise ValueError(f"r^n must be 1 mod m: {r}^{n} != 1 (mod {m})")
        if math.gcd(m, n * (r - 1)) != 1:
            raise ValueError(f"gcd(m, n(r-1)) must be 1, got m={m}, n={n}, r={r}")
    size = m * n
    _check_order(size, max_order)
    return _metacyclic(m, n, r, 0, f"ZM({m},{n},{r})")


def p_group_P(
    n: int,
    p: int,
    q: int,
    max_order: int | None = None,
    action_power: int | None = None,
) -> FiniteGroup:
    """Non-abelian semidirect product of Z_p^(n-1) by Z_q of order p^(n-1) q.

    The order-q generator x acts on the elementary abelian part by the
    power automorphism y -> y^r with x^-1 y x = y^r, where r is the
    smallest integer > 1 of multiplicative order q mod p (q must be a
    prime divisor of p-1, p odd). ``action_power`` overrides r; the
    isomorphism class does not depend on the choice.
    """
    if p < 3:
        raise ValueError(f"base prime must be odd, got {p}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if q < 2 or (p - 1) % q != 0:
        raise ValueError(f"q must be a prime divisor of p-1, got p={p}, q={q}")
    _check_power_order(p, n - 1, max_order, q)
    if not is_prime(p):
        raise ValueError(f"base prime must be odd, got {p}")
    if not is_prime(q):
        raise ValueError(f"q must be a prime divisor of p-1, got p={p}, q={q}")
    if action_power is None:
        r = next(
            a for a in range(2, p) if multiplicative_order(a, p) == q
        )
    else:
        r = action_power % p
        if r in (0, 1) or multiplicative_order(r, p) != q:
            raise ValueError(f"action power {action_power} does not have order {q} mod {p}")
    # x^s v x^-s scales v by r^-s (so that x^-1 v x = v^r holds); x = (1, 0)
    # and the unit vectors generate
    rinv = pow(r, -1, p)
    gens = [p ** (n - 1 - i) for i in range(n)]
    return _split([p] * (n - 1), q, lambda v: tuple(x * rinv % p for x in v), 0, gens, f"P({n},{p},{q})")


def heisenberg_E(p: int, max_order: int | None = None) -> FiniteGroup:
    """Non-abelian group of order p^3 and exponent p (p odd): unitriangular 3x3 over F_p."""
    if p < 3:
        raise ValueError(f"need an odd prime, got {p}")
    size = _check_power_order(p, 3, max_order)
    if not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    # (a, b, c)(a2, b2, c2) = (a + a2, b + b2, c + c2 + a*b2): a acts on (b, c)
    # by the shear (b, c) -> (b, c + b); (1, 0, 0) and (0, 1, 0) generate
    return _split([p, p], p, lambda v: (v[0], (v[1] + v[0]) % p), 0, [p * p, p], f"E({size})")


def _composer(images: tuple[int, ...]):
    """x -> x∘images, the tuple (x[images[0]], x[images[1]], ...).

    An itemgetter needs two or more indices to return a tuple. Below
    degree 2 every permutation is the identity, which ``tuple`` returns.
    """
    return operator.itemgetter(*images) if len(images) > 1 else tuple


def from_generators(
    degree: int, gens: list[Permutation], max_order: int | None = None, label: str | None = None
) -> FiniteGroup:
    """Closure of permutation generators; elements indexed in BFS discovery order.

    The identity (index 0) is discovered first; each known element is
    right-multiplied by each generator in the given order.
    """
    cap = _cap(max_order)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} does not match {degree}")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    rights = [_composer(g.images) for g in gens]
    rmul: list[list[int]] = [[] for _ in gens]
    for u in elems:
        for right, rk in zip(rights, rmul):
            w = right(u)
            if w not in index:
                if len(elems) >= cap:
                    raise GuardrailExceeded(
                        f"generator closure exceeds {_GUARDS['order'][1]} {cap}"
                    )
                index[w] = len(elems)
                elems.append(w)
            rk.append(index[w])
    if label is None:
        label = f"Perm({degree}; " + ", ".join(g.to_cycles() for g in gens) + ")"
    return _tree_group(len(elems), rmul, label)


def direct_product(
    g: FiniteGroup, h: FiniteGroup, max_order: int | None = None
) -> FiniteGroup:
    """Componentwise product; element (a, b) has index a*|h| + b. It is
    generated by (x, 1) and (1, y) for the generators x of g and y of h,
    right-multiplied through the factors' ``_rights``; no row of g or h is
    read."""
    size = g.order * h.order
    _check_order(size, max_order)
    hs, blocks = range(h.order), range(0, size, h.order)
    rmul = [[a * h.order + b for a in r for b in hs] for r in g._rights]
    rmul += [[a + b for a in blocks for b in r] for r in h._rights]
    return _tree_group(size, rmul, f"{g.label}x{h.label}")


def subgroup_as_group(sub: Subgroup, label: str | None = None) -> FiniteGroup:
    """Standalone FiniteGroup on the elements of a subgroup, reindexed 0..size-1.

    Elements keep their relative order, so the identity (index 0 in the
    parent) stays at index 0.
    """
    t = sub.group.table
    pos = {e: i for i, e in enumerate(sub.elems)}
    table = [tuple([pos[t[a][b]] for b in sub.elems]) for a in sub.elems]
    if label is None:
        label = f"{sub.group.label}>sub({sub.size})"
    return FiniteGroup(table, label)


def quotient(group: FiniteGroup, normal: Subgroup) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets indexed by minimal member, ascending."""
    if normal.group is not group:
        raise ValueError("subgroup belongs to a different group")
    if not _invariant(normal.members, normal.elems, _conjugation_maps(group)):
        raise ValueError("subgroup is not normal")
    t = group.table
    cosets = _orbits(group.order, normal.elems, lambda x, a: t[a][x])  # the cosets aN
    coset_of = {a: i for i, coset in enumerate(cosets) for a in coset}
    table = [tuple([coset_of[t[a[0]][b[0]]] for b in cosets]) for a in cosets]
    return FiniteGroup(table, f"{group.label}/({normal.size})")
