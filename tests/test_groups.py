import itertools
import operator
import re
from collections import Counter
from fractions import Fraction

import pytest

from csdlab.degrees import csd, d
from csdlab.errors import GuardrailExceeded
from csdlab.expr import evaluate, parse
from csdlab.groups import (
    FiniteGroup,
    Permutation,
    Subgroup,
    center,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    elementary_abelian,
    from_generators,
    generalized_quaternion,
    generated_subgroup,
    heisenberg_E,
    is_abelian,
    is_nilpotent,
    modular_group_M,
    p_group_P,
    quasidihedral,
    quotient,
    relabel,
    subgroup_as_group,
    trivial_subgroup,
    zm_group,
    _conjugation_maps,
    _elements,
    _orbits,
)
from csdlab.lattice import subgroup_lattice
from oracle import (
    brute_classes,
    brute_center,
    brute_derived,
    brute_is_nilpotent,
    brute_normals,
    brute_subgroups,
    closure,
    validate,
)

CONSTRUCTED = [
    cyclic(1),
    cyclic(7),
    cyclic(12),
    elementary_abelian(2, 3),
    elementary_abelian(3, 2),
    dihedral(3),
    dihedral(4),
    dihedral(6),
    generalized_quaternion(3),
    generalized_quaternion(4),
    quasidihedral(4),
    quasidihedral(5),
    modular_group_M(2, 4),
    modular_group_M(3, 3),
    p_group_P(2, 3, 2),
    p_group_P(3, 3, 2),
    p_group_P(2, 7, 3),
    zm_group(7, 3, 2),
    zm_group(3, 4, 2),
    heisenberg_E(3),
    direct_product(cyclic(4), generalized_quaternion(3)),
]


def element_order_census(group: FiniteGroup) -> Counter:
    return Counter(group.elem_order)


@pytest.mark.parametrize("group", CONSTRUCTED, ids=lambda g: g.label)
def test_constructors_build_valid_groups(group):
    validate(group, check_associativity=group.order <= 40)


def test_cyclic():
    g = cyclic(6)
    assert g.order == 6
    assert sorted(g.elem_order) == [1, 2, 3, 3, 6, 6]
    assert g.is_abelian
    assert g.table[2][3] == 5
    with pytest.raises(ValueError):
        cyclic(0)


def test_elementary_abelian():
    g = elementary_abelian(2, 3)
    assert g.order == 8
    assert element_order_census(g) == Counter({1: 1, 2: 7})
    with pytest.raises(ValueError):
        elementary_abelian(4, 2)


def test_dihedral_census_and_relations():
    g = dihedral(4)
    assert g.order == 8
    assert element_order_census(g) == Counter({1: 1, 2: 5, 4: 2})
    r, s = 1, 4
    # s r s^-1 = r^-1
    left = g.mul(g.mul(s, r), g.inv(s))
    assert left == g.inv(r)
    assert not g.is_abelian


def test_generalized_quaternion_unique_involution():
    for n in (3, 4, 5):
        g = generalized_quaternion(n)
        assert g.order == 2**n
        involutions = [x for x in range(g.order) if g.elem_order[x] == 2]
        assert len(involutions) == 1


def test_quasidihedral_census_and_relation():
    g = quasidihedral(4)
    assert g.order == 16
    assert element_order_census(g) == Counter({1: 1, 2: 5, 4: 6, 8: 4})
    x, y = 1, 8
    # y x y^-1 = x^(2^(n-2) - 1) = x^3
    left = g.mul(g.mul(y, x), g.inv(y))
    assert left == g.power(x, 3)


def test_modular_group_relation():
    g = modular_group_M(2, 4)
    assert g.order == 16
    x, y = 1, 8
    # y^-1 x y = x^(1 + 2^(n-2)) = x^5
    left = g.mul(g.mul(g.inv(y), x), y)
    assert left == g.power(x, 5)
    m27 = modular_group_M(3, 3)
    assert m27.order == 27
    assert not m27.is_abelian
    with pytest.raises(ValueError):
        modular_group_M(2, 3)


def test_p_group_orders_and_isomorphism_invariants():
    g = p_group_P(2, 3, 2)
    assert g.order == 6
    s3 = from_generators(3, [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)])
    assert element_order_census(g) == element_order_census(s3)
    assert p_group_P(3, 3, 2).order == 18
    g21 = p_group_P(2, 7, 3)
    assert g21.order == 21
    zm21 = zm_group(7, 3, 2)
    assert element_order_census(g21) == element_order_census(zm21)
    with pytest.raises(ValueError):
        p_group_P(2, 7, 5)  # 5 does not divide 7 - 1


def test_p_group_action_power_choice_is_neutral():
    # any power of multiplicative order q gives the same multiset structure
    default = p_group_P(2, 7, 3)
    alt = p_group_P(2, 7, 3, action_power=4)  # 4 = 2^2 also has order 3 mod 7
    assert element_order_census(default) == element_order_census(alt)


def test_zm_group_validation():
    g = zm_group(7, 3, 2)
    assert g.order == 21
    a, b = 3, 1  # a generates the order-7 cycle at index 3? use relation check instead
    # find generators by order
    a = next(x for x in range(g.order) if g.elem_order[x] == 7)
    b = next(x for x in range(g.order) if g.elem_order[x] == 3)
    conj = g.mul(g.mul(b, a), g.inv(b))
    assert conj in {g.power(a, 2), g.power(a, 4)}
    with pytest.raises(ValueError):
        zm_group(4, 2, 3)  # gcd(m, n(r-1)) must be 1
    with pytest.raises(ValueError):
        zm_group(7, 3, 3)  # 3^3 = 27 is not 1 mod 7


def test_heisenberg_exponent():
    g = heisenberg_E(3)
    assert g.order == 27
    assert element_order_census(g) == Counter({1: 1, 3: 26})
    assert not g.is_abelian
    with pytest.raises(ValueError):
        heisenberg_E(2)


def test_from_generators_builds_s3():
    s3 = from_generators(3, [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)])
    assert s3.order == 6
    assert not s3.is_abelian
    validate(s3)


def test_from_generators_empty_is_trivial():
    g = from_generators(4, [])
    assert g.order == 1


@pytest.mark.parametrize("degree", [0, 1])
def test_from_generators_below_degree_two_is_trivial(degree):
    g = from_generators(degree, [Permutation.identity(degree)] * 2)
    assert g.table == ((0,),)
    assert g.label == f"Perm({degree}; (), ())"


def test_from_generators_guardrail():
    images = tuple([1, 2, 3, 4, 5, 6, 7, 8, 9, 0])
    with pytest.raises(GuardrailExceeded):
        from_generators(10, [Permutation(images)], max_order=5)


# Tables rebuilt one product at a time from each family's definition, as a
# reference for the generator-tree table builder.


def reference_permutation_table(degree, cycles):
    """BFS closure from the identity, right-multiplying by each generator
    in turn; the product a*b is a after b."""
    gens = [Permutation.from_cycles(c, degree) for c in cycles]
    elems = [Permutation.identity(degree)]
    index = {elems[0]: 0}
    for u in elems:
        for g in gens:
            w = u.compose(g)
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
    return [[index[a.compose(b)] for b in elems] for a in elems]


def reference_elementary_abelian_table(p, k):
    elems = list(itertools.product(range(p), repeat=k))
    index = {v: i for i, v in enumerate(elems)}
    return [[index[tuple((x + y) % p for x, y in zip(u, v))] for v in elems] for u in elems]


def reference_p_group_table(n, p, q):
    """Element v*x^s at index s*p^(n-1) + index(v), with x v x^-1 = v^(r^-1)
    and r of multiplicative order q mod p (the least such r > 1)."""
    r = next(a for a in range(2, p) if pow(a, q, p) == 1)
    vecs = list(itertools.product(range(p), repeat=n - 1))
    index = {v: i for i, v in enumerate(vecs)}
    elems = [(s, v) for s in range(q) for v in vecs]

    def product(left, right):
        (s, v), (t, w) = left, right
        scale = pow(r, -s, p)
        u = tuple((a + b * scale) % p for a, b in zip(v, w))
        return ((s + t) % q) * len(vecs) + index[u]

    return [[product(a, b) for b in elems] for a in elems]


def reference_heisenberg_table(p):
    """Unitriangular matrices [[1, a, c], [0, 1, b], [0, 0, 1]] over F_p,
    indexed by (a, b, c) in lexicographic order, multiplied as matrices."""
    elems = list(itertools.product(range(p), repeat=3))
    index = {v: i for i, v in enumerate(elems)}

    def matrix(v):
        a, b, c = v
        return ((1, a, c), (0, 1, b), (0, 0, 1))

    def product(u, v):
        x, y = matrix(u), matrix(v)
        z = [[sum(x[i][k] * y[k][j] for k in range(3)) % p for j in range(3)] for i in range(3)]
        return index[(z[0][1], z[1][2], z[0][2])]

    return [[product(u, v) for v in elems] for u in elems]


@pytest.mark.parametrize(
    "text,reference",
    [
        ("S(4)", lambda: reference_permutation_table(4, ["(0 1)", "(0 1 2 3)"])),
        ("A(5)", lambda: reference_permutation_table(5, ["(0 1 2)", "(0 1 2 3 4)"])),
        (
            "Perm(5; (0 1 2 3), (3 4))",
            lambda: reference_permutation_table(5, ["(0 1 2 3)", "(3 4)"]),
        ),
        ("Ea(3,2)", lambda: reference_elementary_abelian_table(3, 2)),
        ("Ea(2,4)", lambda: reference_elementary_abelian_table(2, 4)),
        ("P(3,3,2)", lambda: reference_p_group_table(3, 3, 2)),
        ("P(2,5,2)", lambda: reference_p_group_table(2, 5, 2)),
        ("E(27)", lambda: reference_heisenberg_table(3)),
    ],
)
def test_tree_built_tables_match_definitions(text, reference):
    group = evaluate(parse(text))
    assert group.table == tuple(map(tuple, reference())), text


@pytest.mark.parametrize(
    "build,m,k,wrap,c",
    [
        (lambda: dihedral(4), 4, 2, 0, 3),
        (lambda: dihedral(9), 9, 2, 0, 8),
        (lambda: generalized_quaternion(4), 8, 2, 4, 7),
        (lambda: generalized_quaternion(5), 16, 2, 8, 15),
        (lambda: quasidihedral(4), 8, 2, 0, 3),
        (lambda: quasidihedral(5), 16, 2, 0, 7),
        (lambda: modular_group_M(2, 4), 8, 2, 0, 5),
        (lambda: modular_group_M(3, 3), 9, 3, 0, 4),
        (lambda: zm_group(7, 3, 2), 7, 3, 0, 4),
        (lambda: zm_group(21, 2, 20), 21, 2, 0, 20),
        (lambda: zm_group(1, 5, 0), 1, 5, 0, 0),
        (lambda: cyclic(1), 1, 1, 0, 0),
        (lambda: cyclic(12), 12, 1, 0, 1),
    ],
    ids=[
        "D(8)", "D(18)", "Q(16)", "Q(32)", "SD(16)", "SD(32)", "M(16)", "M(27)",
        "ZM(7,3,2)", "ZM(21,2,20)", "ZM(1,5,0)", "Z(1)", "Z(12)",
    ],
)
def test_metacyclic_tables_satisfy_presentation(build, m, k, wrap, c):
    """x^i y^s sits at index s*m + i, x has order m, y^k = x^wrap and
    y^-1 x y = x^c. An order-m*k group with these relations and this
    indexing has exactly one Cayley table, so this pins every entry."""
    g = build()
    validate(g)
    assert g.order == m * k
    x = 1 % m  # the identity when m = 1
    y = m if k > 1 else g.power(x, wrap)  # with k = 1, y = y^k = x^wrap
    for s in range(k):
        for i in range(m):
            assert g.mul(g.power(x, i), g.power(y, s)) == s * m + i
    assert g.elem_order[x] == m
    assert g.power(y, k) == g.power(x, wrap)
    assert g.mul(g.mul(g.inv(y), x), y) == g.power(x, c)


@pytest.mark.parametrize(
    "build,p,k,q,conj",
    [
        (lambda: elementary_abelian(2, 1), 2, 0, 2, lambda v: v),
        (lambda: elementary_abelian(3, 3), 3, 2, 3, lambda v: v),
        (lambda: elementary_abelian(2, 6), 2, 5, 2, lambda v: v),
        (lambda: p_group_P(2, 3, 2), 3, 1, 2, lambda v: tuple(2 * c % 3 for c in v)),
        (lambda: p_group_P(3, 7, 3), 7, 2, 3, lambda v: tuple(2 * c % 7 for c in v)),
        (lambda: p_group_P(3, 7, 3, action_power=4), 7, 2, 3, lambda v: tuple(4 * c % 7 for c in v)),
        (lambda: p_group_P(4, 3, 2), 3, 3, 2, lambda v: tuple(2 * c % 3 for c in v)),
        (lambda: heisenberg_E(3), 3, 2, 3, lambda v: (v[0], (v[1] - v[0]) % 3)),
        (lambda: heisenberg_E(5), 5, 2, 5, lambda v: (v[0], (v[1] - v[0]) % 5)),
    ],
    ids=[
        "Ea(2,1)", "Ea(3,3)", "Ea(2,6)", "P(2,3,2)", "P(3,7,3)", "P(3,7,3)^4", "P(4,3,2)",
        "E(27)", "E(125)",
    ],
)
def test_split_tables_satisfy_presentation(build, p, k, q, conj):
    """v x^s sits at index s*p^k + v, v read in base p with its first
    coordinate most significant: x at p^k, the i-th unit vector at
    p^(k-1-i). x has order q, the unit vectors have order p and commute,
    and x^-1 v x = conj(v). An order-q*p^k group with these relations and
    this indexing has exactly one Cayley table, so this pins every entry."""
    g = build()
    validate(g)
    pk = p**k
    assert g.order == q * pk
    x = pk
    units = [p ** (k - 1 - i) for i in range(k)]

    def element(v):
        e = 0
        for u, c in zip(units, v):
            e = g.mul(e, g.power(u, c))
        return e

    vecs = list(itertools.product(range(p), repeat=k))
    for s in range(q):
        for i, v in enumerate(vecs):
            assert g.mul(element(v), g.power(x, s)) == s * pk + i
    assert g.elem_order[x] == q
    for u in units:
        assert g.elem_order[u] == p
        assert all(g.mul(u, w) == g.mul(w, u) for w in units)
    for v in vecs:
        assert g.mul(g.mul(g.inv(x), element(v)), x) == element(conj(v))


def test_to_cycles_matches_a_cycle_walk():
    def walk(images):
        seen, out = set(), []
        for i in range(len(images)):
            if i in seen or images[i] == i:
                continue
            cycle = [i]
            while images[cycle[-1]] != i:
                cycle.append(images[cycle[-1]])
            seen.update(cycle)
            out.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(out) or "()"

    for degree in range(6):
        for images in itertools.permutations(range(degree)):
            assert Permutation(images).to_cycles() == walk(images), images


def test_permutation_cycles_round_trip():
    p = Permutation.from_cycles("(0 1)(2 3)", 4)
    assert p.to_cycles() == "(0 1)(2 3)"
    assert Permutation.from_cycles("()", 3).images == (0, 1, 2)
    q = Permutation.from_cycles("(0 2 1)", 3)
    assert Permutation.from_cycles(q.to_cycles(), 3) == q
    with pytest.raises(ValueError):
        Permutation.from_cycles("(0 1)(1 2)", 3)
    # the same constructor takes the cycles as sequences
    assert Permutation.from_cycles([(0, 1), (2, 3)], 4) == p
    assert Permutation.from_cycles([], 3).images == (0, 1, 2)
    for bad in ([(0, 1), (1, 2)], [(0, 3)]):
        with pytest.raises(ValueError):
            Permutation.from_cycles(bad, 3)
    # the notation is read by the expression grammar, which names the position
    for bad in ("(0_1 2)", "(+1 2)", "", "(1 2)junk"):
        with pytest.raises(ValueError, match=r"\(at position \d+\)$"):
            Permutation.from_cycles(bad, 3)


def test_direct_product_structure():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert g.is_abelian
    assert sorted(g.elem_order) == sorted(cyclic(6).elem_order)
    with pytest.raises(GuardrailExceeded):
        direct_product(cyclic(30), cyclic(30), max_order=100)


def _klein():
    d8 = dihedral(4)
    return quotient(d8, center(d8))  # a group given a full table


def _assert_product_table(g, h):
    n = h.order
    t, gt, ht = direct_product(g, h, max_order=4096).table, g.table, h.table
    for a, b, c, d in itertools.product(range(g.order), range(n), range(g.order), range(n)):
        assert t[a * n + b][c * n + d] == gt[a][c] * n + ht[b][d]


@pytest.mark.parametrize(
    "build",
    [
        lambda: (dihedral(4), generalized_quaternion(3)),  # tree x tree
        lambda: (_klein(), cyclic(3)),
        lambda: (cyclic(2), relabel(p_group_P(2, 3, 2), Permutation((0, 3, 5, 1, 4, 2)))),
        lambda: (cyclic(1), dihedral(3)),  # trivial factor
        lambda: (heisenberg_E(3), cyclic(1)),
        lambda: (cyclic(1), cyclic(1)),
        lambda: (direct_product(cyclic(2), cyclic(2)), generalized_quaternion(3)),
        lambda: (cyclic(2), direct_product(cyclic(2), generalized_quaternion(3))),
    ],
    ids=["D(8)xQ(8)", "quotient", "relabel", "Z(1)xD(6)", "E(27)xZ(1)", "Z(1)xZ(1)",
         "(Z(2)xZ(2))xQ(8)", "Z(2)x(Z(2)xQ(8))"],
)
def test_direct_product_table_is_componentwise(build):
    g, h = build()
    _assert_product_table(g, h)
    _assert_product_table(h, g)


def test_products_and_relabelled_copies_build_rows_on_demand():
    a5 = evaluate(parse("A(5)"))
    g = direct_product(a5, a5, max_order=3600)
    assert csd(g, max_order=3600) == Fraction(8783, 189728)
    assert d(g) == Fraction(1, 144)
    assert g._built() <= 100
    assert g._table is None
    # the copy reads no row of g, and its own element walk builds a few of
    # its rows
    before = g._built()
    moved = relabel(g, Permutation((0, *range(3599, 0, -1))))
    assert g._built() == before
    assert moved._table is None and moved._built() <= 360


def test_constructors_read_no_row_of_their_inputs(monkeypatch):
    # a product or a relabelled copy is built from its inputs' right
    # multiplications alone; the new group's own walk reads its own rows
    a5 = evaluate(parse("A(5)"))
    g = direct_product(a5, a5, max_order=3600)
    reads = []
    row = FiniteGroup._row

    def counting(self, a):
        if self is a5 or self is g:
            reads.append((self.label, a))
        return row(self, a)

    monkeypatch.setattr(FiniteGroup, "_row", counting)
    direct_product(a5, a5, max_order=3600)
    relabel(g, Permutation((0, *range(3599, 0, -1))))
    assert reads == []


def test_center_matches_oracle(corpus):
    for group in (dihedral(4), generalized_quaternion(3), heisenberg_E(3), p_group_P(2, 3, 2)):
        assert frozenset(center(group).elems) == brute_center(group)
    for text, group in corpus:
        assert frozenset(center(group).elems) == brute_center(group), text


def test_derived_subgroup(corpus):
    s3 = p_group_P(2, 3, 2)
    der = derived_subgroup(s3)
    assert der.size == 3
    assert derived_subgroup(cyclic(12)).size == 1
    d8 = dihedral(4)
    assert derived_subgroup(d8).size == 2
    for text, group in corpus:
        assert frozenset(derived_subgroup(group).elems) == brute_derived(group), text
    for text in ("S(5)", "A(5)"):
        group = evaluate(parse(text))
        assert frozenset(derived_subgroup(group).elems) == brute_derived(group), text


def test_nilpotency_matches_oracle(corpus):
    for group in CONSTRUCTED:
        assert is_nilpotent(group) == brute_is_nilpotent(group), group.label
    for text, group in corpus:
        assert is_nilpotent(group) == brute_is_nilpotent(group), text


@pytest.mark.parametrize("text", ["S(4)", "Z(2)xD(8)", "Q(16)", "Z(3)xS(3)", "E(27)", "Ea(3,2)"])
def test_subgroup_conjugation_maps_match_conjugation_by_every_element(text):
    # the maps of a subgroup H come from its greedy generators only, those
    # of G (no ``within``) from its construction generators when G is
    # tree-built (S(4), Q(16), E(27), Ea(3,2)) and from its greedy chain
    # when G was given a full table (the direct products); their orbits
    # must still be the conjugacy classes, and no map is left exactly when
    # the (sub)group is abelian
    group = evaluate(parse(text))
    t = group.table
    inv = group.inverse
    whole = [(None, tuple(range(group.order)))]
    for within, elems in whole + [(s.members, s.elems) for s in subgroup_lattice(group)]:
        maps = _conjugation_maps(group, within)
        abelian = all(t[a][b] == t[b][a] for a in elems for b in elems)
        assert (not maps) == abelian, (text, elems)
        classes = {frozenset(t[t[inv[g]][x]][g] for g in elems) for x in elems}
        orbits = set()
        for x in elems:
            orbit = [x]
            for y in orbit:
                for c in maps:
                    if c[y] not in orbit:
                        orbit.append(c[y])
            orbits.add(frozenset(orbit))
        assert orbits == classes, (text, elems)


def test_power_checks_its_index_and_reduces_the_exponent():
    d8 = dihedral(4)
    for bad in (-1, 8):
        with pytest.raises(IndexError, match="^element index out of range for group of order 8$"):
            d8.power(bad, 1)
    for a in range(8):
        acc = 0
        for k in range(10):
            assert d8.power(a, k) == acc
            assert d8.mul(d8.power(a, -k), acc) == 0
            acc = d8.mul(acc, a)
    # the exponent counts modulo the element order, so no loop runs 10^18 times
    assert d8.power(1, 10**18 + 3) == d8.power(1, 3) == 3
    assert d8.power(1, -(10**18) - 1) == d8.inv(1)


def test_power_walk_gives_inverses_orders_and_cyclic_subgroups(corpus):
    # one walk per conjugacy class of cyclic subgroups, carried to the rest
    # of the class by the conjugation maps; A(7) and S(6) have many classes
    texts = ("D(512)", "Z(512)", "Ea(2,9)", "S(6)", "A(7)")
    large = [(text, evaluate(parse(text), max_order=2520)) for text in texts]
    for text, group in corpus + large:
        t = group.table
        closures = {}  # oracle closure, once per distinct <x>
        for x in range(group.order):
            y = group.inverse[x]
            assert t[x][y] == t[y][x] == 0, (text, x)
            powers = [x]
            while powers[-1] != 0 and len(powers) <= group.order:
                powers.append(t[powers[-1]][x])
            assert group.elem_order[x] == len(powers), (text, x)
            walk = frozenset(powers)
            if walk not in closures:
                closures[walk] = closure(t, (x,))
            assert set(_elements(group._cyclic_of[x])) == walk == closures[walk], (text, x)


def test_single_products_read_only_their_rows():
    a7 = evaluate(parse("A(7)"), max_order=2520)
    before = a7._built()
    products = [(a, b, a7.mul(a, b)) for a, b in ((5, 7), (2519, 1), (1000, 2000))]
    powers = [(a, k, a7.power(a, k)) for a, k in ((5, 2), (2519, -1))]
    Subgroup.from_elements(a7, a7._powers(1000))
    assert a7._table is None
    # each read builds its row and any missing ancestors in the BFS tree
    assert a7._built() <= before + 50
    t = a7.table
    assert all(t[a][b] == ab for a, b, ab in products)
    assert powers == [(5, 2, t[5][5]), (2519, -1, a7.inverse[2519])]


def test_csd_and_d_of_a7_build_few_rows():
    # one pair test per conjugacy orbit reads only the representatives'
    # rows, and the element data and conjugation maps a few more
    counts = []
    for _ in range(2):
        a7 = evaluate(parse("A(7)"), max_order=2520)
        assert csd(a7, max_order=2520) == Fraction(20689, 896809)
        assert d(a7) == Fraction(1, 280)
        counts.append(a7._built())
        assert a7._table is None
    assert counts[0] == counts[1] <= 100
    assert a7.table == evaluate(parse("A(7)"), max_order=2520).table


def test_validate_accepts_a_large_group_without_associativity():
    validate(evaluate(parse("A(7)"), max_order=2520), check_associativity=False)


@pytest.mark.parametrize(
    "table, label, message",
    [
        ([[0, 1], [1, 1]], "bad", "powers of element 1 never reach 0 in table for 'bad'"),
        ([[0, 1, 2], [1, 2, 1], [2, 1, 2]], "bad", "powers of element 1 never reach 0 in table for 'bad'"),
        ([[0, 1], [1]], "short", "table for 'short' is not square"),
        (
            [[0, 1, 2], [1, 7, 0], [2, 0, 1]],
            "x",
            "powers of element 1 reach table entry 7, out of range 0..2, in table for 'x'",
        ),
        (
            [[0, 1, 2], [1, -1, 0], [2, 0, 1]],
            "x",
            "powers of element 1 reach table entry -1, out of range 0..2, in table for 'x'",
        ),
    ],
)
def test_finite_group_rejects_a_table_that_is_not_a_group(table, label, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FiniteGroup(table, label)


def test_subgroup_from_elements_names_a_bad_index():
    d8 = dihedral(4)
    for bad in ([0, -1], [0, 99]):
        with pytest.raises(IndexError, match="^element index out of range for group of order 8$"):
            Subgroup.from_elements(d8, bad)
    assert Subgroup.from_elements(d8, iter([0, 2])).elems == (0, 2)


def test_generated_subgroup_rejects_a_bad_generator():
    d8 = dihedral(4)
    for bad in ([-1], [8], [1, 8]):
        with pytest.raises(IndexError, match="^element index out of range for group of order 8$"):
            generated_subgroup(d8, bad)
    assert generated_subgroup(d8, iter([1, 4])).size == 8
    assert generated_subgroup(d8, []).elems == (0,)


def test_is_abelian(corpus):
    assert is_abelian(cyclic(12))
    assert not is_abelian(dihedral(3))
    for text, group in corpus:
        t = group.table
        pairwise = all(t[a][b] == t[b][a] for a in range(group.order) for b in range(a))
        assert is_abelian(group) == group.is_abelian == pairwise, text


def test_quotient_of_dihedral_by_center_is_klein():
    d8 = dihedral(4)
    z = center(d8)
    q = quotient(d8, z)
    assert q.order == 4
    assert all(q.elem_order[x] <= 2 for x in range(4))


def test_quotient_requires_normal(small_corpus):
    s3 = p_group_P(2, 3, 2)
    reflection = next(x for x in range(6) if s3.elem_order[x] == 2)
    sub = generated_subgroup(s3, [reflection])
    with pytest.raises(ValueError):
        quotient(s3, sub)
    # exactly the non-normal subgroups are refused
    for text, group in small_corpus:
        normals = brute_normals(group)
        for members in brute_subgroups(group):
            sub = Subgroup(group, sum(1 << x for x in members))
            if members in normals:
                assert quotient(group, sub).order == group.order // len(members), text
            else:
                with pytest.raises(ValueError, match="^subgroup is not normal$"):
                    quotient(group, sub)


def test_subgroup_as_group_reindexes():
    d8 = dihedral(4)
    rot = generated_subgroup(d8, [1])
    g = subgroup_as_group(rot)
    assert g.order == 4
    assert sorted(g.elem_order) == [1, 2, 4, 4]
    validate(g)


def test_relabel_preserves_structure():
    d8 = dihedral(4)
    perm = Permutation((0, 3, 1, 2, 6, 4, 7, 5))
    moved = relabel(d8, perm)
    validate(moved)
    assert element_order_census(moved) == element_order_census(d8)
    with pytest.raises(ValueError):
        relabel(d8, Permutation((1, 0, 2, 3, 4, 5, 6, 7)))


@pytest.mark.parametrize(
    "build,images",
    [
        (lambda: dihedral(4), (0, 3, 1, 2, 6, 4, 7, 5)),
        (lambda: _klein(), (0, 2, 3, 1)),
        (lambda: direct_product(cyclic(2), cyclic(3)), (0, 5, 4, 3, 2, 1)),
        (lambda: cyclic(2), (0, 1)),
        (lambda: cyclic(1), (0,)),
    ],
    ids=["D(8)", "quotient", "Z(2)xZ(3)", "Z(2)", "Z(1)"],
)
def test_relabel_table_renames_every_entry(build, images):
    g = build()
    p = images.__getitem__
    t = relabel(g, Permutation(images)).table
    for a, b in itertools.product(range(g.order), repeat=2):
        assert t[p(a)][p(b)] == p(g.table[a][b])


def test_trivial_subgroup():
    g = cyclic(5)
    t = trivial_subgroup(g)
    assert t.size == 1 and t.elems == (0,)


def test_guardrail_on_constructors():
    with pytest.raises(GuardrailExceeded):
        cyclic(513)
    assert cyclic(513, max_order=1000).order == 513


BIG_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: elementary_abelian(BIG_PRIME, 1), f"order {BIG_PRIME} exceeds max order 512"),
        (lambda: elementary_abelian(3, 100000000), "order 3^100000000 exceeds max order 512"),
        (lambda: elementary_abelian(2, 10), "order 2^10 exceeds max order 512"),
        (lambda: elementary_abelian(3, 6), "order 729 exceeds max order 512"),
        (lambda: p_group_P(2, BIG_PRIME, 2), f"order {2 * BIG_PRIME} exceeds max order 512"),
        (lambda: p_group_P(100000000, 3, 2), "order 3^99999999*2 exceeds max order 512"),
        (lambda: modular_group_M(BIG_PRIME, 3), f"order {BIG_PRIME**3} exceeds max order 512"),
        (lambda: modular_group_M(2, 100000000), "order 2^100000000 exceeds max order 512"),
        (lambda: heisenberg_E(BIG_PRIME), f"order {BIG_PRIME**3} exceeds max order 512"),
        (lambda: heisenberg_E(11, max_order=1000), "order 1331 exceeds max order 1000"),
    ],
    ids=["Ea-prime", "Ea-rank", "Ea(2,10)", "Ea(3,6)", "P-prime", "P-rank", "M-prime", "M-rank", "E-prime", "E(1331)"],
)
def test_constructor_guardrail_comes_before_primality_and_powers(build, message):
    """The cap is checked after the range checks but before a primality
    test or a power that would run for a huge parameter."""
    with pytest.raises(GuardrailExceeded, match=f"^{re.escape(message)}$"):
        build()


def test_orbits_are_the_conjugacy_classes(small_corpus):
    d12 = dihedral(6)
    s4 = evaluate(parse("S(4)"))
    abelian = elementary_abelian(3, 2)
    groups = [g for _, g in small_corpus] + [
        quotient(d12, center(d12)),  # S(3), given a full table
        subgroup_as_group(subgroup_lattice(s4).subgroups[-2]),  # A(4)
        abelian,
    ]
    for g in groups:
        classes = _orbits(g.order, _conjugation_maps(g), operator.getitem)
        assert {frozenset(c) for c in classes} == brute_classes(g), g.label
        # each orbit from its least member, the orbits in order of that member
        assert [c[0] for c in classes] == sorted(min(c) for c in classes), g.label
    assert _conjugation_maps(abelian) == []
    assert _orbits(abelian.order, [], operator.getitem) == [[x] for x in range(9)]
