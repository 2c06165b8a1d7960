import gc
from fractions import Fraction

import pytest

from csdlab.degrees import cdeg, csd, csd_star, is_iwasawa, lower_bounds, ndeg, sd
from csdlab.errors import GuardrailExceeded
from csdlab.expr import evaluate, parse
from csdlab.formulas import tau
from csdlab.groups import (
    FiniteGroup,
    Permutation,
    Subgroup,
    _conjugation_maps,
    _mask_of,
    center,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_generators,
    generalized_quaternion,
    generated_mask,
    quasidihedral,
    quotient,
    relabel,
    subgroup_as_group,
    trivial_subgroup,
)
from csdlab.lattice import (
    _conjugacy_orbits,
    _section_degrees,
    _sections_lattice,
    c1,
    count_permuting_pairs,
    cyclic_subgroups,
    is_normal,
    normal_subgroups,
    permutes,
    product_set,
    sections,
    subgroup_lattice,
)
from oracle import (
    brute_csd,
    brute_cyclic_subgroups,
    brute_normals,
    brute_permutes,
    brute_subgroups,
)


def as_sets(subs):
    return {frozenset(sub.elems) for sub in subs}


def test_cyclic_subgroups_match_oracle(small_corpus):
    for text, group in small_corpus:
        engine = as_sets(cyclic_subgroups(group, max_order=group.order))
        assert engine == brute_cyclic_subgroups(group), text


def test_cyclic_subgroups_of_cyclic_group_count_is_tau():
    for n in (1, 2, 6, 12, 30, 36):
        assert len(cyclic_subgroups(cyclic(n))) == tau(n)


def test_cyclic_subgroups_of_dihedral_structure():
    # the cyclic subgroups of the order-2m dihedral group are the
    # subgroups of the rotation cycle plus the m reflection pairs
    for m in (3, 4, 5, 6, 9, 12):
        group = dihedral(m)
        poset = cyclic_subgroups(group)
        assert len(poset) == tau(m) + m
        rotation_mask = sum(1 << i for i in range(m))
        inside = [h for h in poset if h.members & ~rotation_mask == 0]
        outside = [h for h in poset if h.members & ~rotation_mask]
        assert len(inside) == tau(m)
        assert len(outside) == m
        assert all(h.size == 2 for h in outside)


def test_subgroup_lattice_matches_oracle_small(small_corpus):
    for text, group in small_corpus:
        if group.order > 16:
            continue
        engine = as_sets(subgroup_lattice(group, max_order=group.order).subgroups)
        assert engine == brute_subgroups(group), text


def test_lattice_is_sorted_and_unique(corpus):
    for text, group in corpus:
        subs = subgroup_lattice(group, max_order=group.order).subgroups
        keys = [(sub.size, sub.members) for sub in subs]
        assert keys == sorted(keys), text
        assert len(set(keys)) == len(keys), text
        assert subs[0].size == 1
        assert subs[-1].size == group.order


def _divisors(m):
    return [q for q in range(1, m + 1) if m % q == 0]


def _gaussian_binomial(k, j, p):
    """Number of j-dimensional subspaces of GF(p)^k."""
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def test_lattice_sizes_match_closed_forms():
    # D(2m): the tau(m) rotation subgroups and, for each divisor q of m,
    # the q dihedral subgroups <r^q, r^i s> with 0 <= i < q
    for m in (12, 30, 64, 128):
        expected = len(_divisors(m)) + sum(_divisors(m))
        assert len(subgroup_lattice(dihedral(m))) == expected, m
    assert len(_divisors(128)) + sum(_divisors(128)) == 263  # D(256)
    # Ea(p,k): the subspaces of GF(p)^k, counted by dimension
    for p, k, count in ((2, 6, 2825), (3, 4, 212), (5, 3, 64)):
        expected = sum(_gaussian_binomial(k, j, p) for j in range(k + 1))
        assert expected == count
        assert len(subgroup_lattice(elementary_abelian(p, k))) == count, (p, k)
    for text, count in (("S(4)", 30), ("A(5)", 59), ("S(5)", 156)):
        assert len(subgroup_lattice(evaluate(parse(text)))) == count, text


def _generating_set(group, mask):
    """Greedy generators of the subgroup ``mask``: each is the least
    element outside the span of the earlier ones."""
    gens: list[int] = []
    span = 1
    while span != mask:
        rest = mask & ~span
        gens.append((rest & -rest).bit_length() - 1)
        span = generated_mask(group, gens)
    return gens


@pytest.mark.parametrize("text", ["A(5)", "S(5)"])
def test_lattice_of_non_solvable_group_is_complete(text):
    # Every subgroup is a join of cyclic subgroups, so a family of
    # subgroups that holds every cyclic subgroup and every pairwise join
    # is the whole lattice.
    group = evaluate(parse(text))
    subs = subgroup_lattice(group).subgroups
    masks = {sub.members for sub in subs}
    for sub in subs:
        sub.check()
    assert {generated_mask(group, [g]) for g in range(group.order)} <= masks
    gens = {m: _generating_set(group, m) for m in masks}
    joined: set[int] = set()
    for a in masks:
        for b in masks:
            union = a | b
            if union in masks or union in joined:
                continue
            joined.add(union)  # <A u B> = <gens(A), gens(B)>
            assert generated_mask(group, gens[a] + gens[b]) in masks, (a, b)


@pytest.mark.parametrize("text", ["S(4)", "S(5)", "SD(32)", "D(128)", "A(5)xZ(2)"])
def test_is_normal_matches_conjugation_by_every_element(text):
    group = evaluate(parse(text))
    t = group.table
    inv = group.inverse
    subs = subgroup_lattice(group).subgroups
    normal = 0
    for sub in subs:
        direct = all(
            sub.contains(t[t[inv[g]][x]][g])
            for g in range(group.order)
            for x in sub.elems
        )
        assert is_normal(sub) == direct, sub
        normal += direct
    assert 2 < normal < len(subs)


def walk_groups(corpus):
    """The corpus (families and products) with a group of every other
    construction: Perm, A(n)/S(n), relabel, and the full tables of
    quotient and subgroup_as_group."""
    s4 = evaluate(parse("S(4)"))
    d16 = evaluate(parse("D(16)"))
    swap = Permutation((0,) + tuple(range(s4.order - 1, 0, -1)))
    more = [
        ("Perm(5; (0 1 2 3), (3 4))", evaluate(parse("Perm(5; (0 1 2 3), (3 4))"))),
        ("A(5)", evaluate(parse("A(5)"))),
        ("S(4)~relabeled", relabel(s4, swap)),
        ("D(16)/Z", quotient(d16, center(d16))),
        ("S(4)>A(4)", subgroup_as_group(subgroup_lattice(s4).subgroups[-2])),
    ]
    return corpus + more


def test_walk_classes_are_the_conjugacy_orbits_of_the_cyclic_poset(corpus):
    # csd counts its pairs from the power walk's classes; they must be
    # exactly the orbits that count_permuting_pairs finds on the poset
    for text, group in walk_groups(corpus):
        classes = group._cyclic_classes
        assert classes[0] == [[0]], text
        for cls in classes[1:]:
            for powers in cls:
                assert powers == group._powers(powers[1]), (text, powers)
        poset = cyclic_subgroups(group, max_order=group.order)
        orbits = _conjugacy_orbits(poset.subgroups, _conjugation_maps(group))
        walked = {frozenset(_mask_of(p) for p in cls) for cls in classes}
        assert walked == {frozenset(mask for mask, _ in o) for o in orbits}, text
        assert sum(map(len, classes)) == len(poset), text


def test_cyclic_subgroups_keep_masks_order_and_repr(corpus):
    # the poset is the distinct masks <x>, in (size, mask) order, each
    # Subgroup as a mask would build it
    for text, group in walk_groups(corpus):
        masks = sorted(set(group._cyclic_of), key=lambda m: (m.bit_count(), m))
        before = [Subgroup(group, m) for m in masks]
        after = list(cyclic_subgroups(group, max_order=group.order))
        assert [(s.members, s.size, s.elems) for s in after] == [
            (s.members, s.size, s.elems) for s in before
        ], text
        assert repr(after) == repr(before), text


def test_normal_subgroups_match_oracle(small_corpus):
    for text, group in small_corpus:
        if group.order > 16:
            continue
        engine = as_sets(normal_subgroups(group, max_order=group.order))
        assert engine == brute_normals(group), text


def test_permutes_agrees_with_set_oracle(corpus):
    # every lattice pair up to order 32: the oracle is the only check of
    # permutes that shares no code with it, on non-cyclic pairs, on each
    # fast path and on the early exit, which must never refuse a
    # permuting pair; then the cyclic pairs of two larger groups
    for text, group in corpus:
        if group.order > 32:
            continue
        lat = list(subgroup_lattice(group, max_order=group.order))
        for h in lat:
            for k in lat:
                expected = brute_permutes(
                    group.table, frozenset(h.elems), frozenset(k.elems)
                )
                assert permutes(h, k) == expected, (text, h.elems, k.elems)
    for text in ("S(5)", "Z(3)xA(4)"):
        group = evaluate(parse(text))
        poset = list(cyclic_subgroups(group))
        for h in poset:
            for k in poset:
                expected = brute_permutes(group.table, frozenset(h.elems), frozenset(k.elems))
                assert permutes(h, k) == expected, (text, h.elems, k.elems)


def test_permutes_equivalent_to_product_closure(corpus):
    for text, group in corpus:
        poset = list(cyclic_subgroups(group, max_order=group.order))
        lattice_masks = {
            sub.members for sub in subgroup_lattice(group, max_order=group.order).subgroups
        }
        for h in poset:
            for k in poset:
                closed = product_set(h, k) in lattice_masks
                assert permutes(h, k) == closed, (text, h.elems, k.elems)


def test_permutes_rejects_mixed_groups():
    a = trivial_subgroup(cyclic(4))
    b = trivial_subgroup(cyclic(5))
    with pytest.raises(ValueError):
        permutes(a, b)


def test_c1_counts_on_s3():
    group = evaluate(parse("S(3)"))
    poset = cyclic_subgroups(group)
    sizes = sorted(len(c1(h, poset)) for h in poset)
    # 19 permuting pairs total, split 3,3,3,5,5 across the five subgroups
    assert sizes == [3, 3, 3, 5, 5]
    assert sum(sizes) == 19


def test_count_permuting_pairs_matches_double_loop(small_corpus):
    for text, group in small_corpus:
        for collection in (
            cyclic_subgroups(group, max_order=group.order),
            subgroup_lattice(group, max_order=group.order),
        ):
            subs = list(collection)
            direct = sum(1 for h in subs for k in subs if permutes(h, k))
            assert count_permuting_pairs(subs) == direct, (text, collection)


def test_count_permuting_pairs_rejects_collection_not_closed_under_conjugation():
    s3 = from_generators(
        3, [Permutation.from_cycles("(0 1)", 3), Permutation.from_cycles("(0 1 2)", 3)]
    )
    transposition = Subgroup(s3, generated_mask(s3, [1]))  # <(0 1)>
    assert transposition.size == 2
    with pytest.raises(ValueError, match="conjugation"):
        count_permuting_pairs([trivial_subgroup(s3), transposition])
    with pytest.raises(ValueError, match="duplicates"):
        count_permuting_pairs([trivial_subgroup(s3), trivial_subgroup(s3)])


def test_sections_of_trivial_group():
    group = cyclic(1)
    out = list(sections(group))
    assert len(out) == 1
    assert out[0].order == 1


def test_sections_include_group_itself():
    d8 = dihedral(4)
    found = [s for s in sections(d8) if s.order == 8]
    assert len(found) == 1
    assert csd(found[0]) == Fraction(41, 49)


def test_d16_has_d8_section():
    d16 = dihedral(8)
    censuses = set()
    for s in sections(d16):
        if s.order == 8:
            censuses.add(tuple(sorted(s.elem_order)))
    d8_census = tuple(sorted(dihedral(4).elem_order))
    assert d8_census in censuses


def test_sd32_has_sd16_quotient_and_q8_section():
    group = quasidihedral(5)
    q8_census = (1, 2, 4, 4, 4, 4, 4, 4)
    censuses = {tuple(sorted(s.elem_order)) for s in sections(group)}
    assert q8_census in censuses


# Not Iwasawa, but with Iwasawa subgroups and quotients. In Z(4)xQ(8)
# and Z(3)xS(3) some H has a row H/N of csd 1 (N != 1) followed by a row
# below 1, so pruning on any csd-1 row, not only N = 1, would show here.
# In S(3)xS(3) the derived subgroup of some H needs the commutators of
# more than one of its generators.
@pytest.mark.parametrize(
    "text", ["Z(4)xQ(8)", "Z(3)xS(3)", "S(4)", "SD(16)", "D(64)", "A(5)xZ(2)", "S(3)xS(3)"]
)
def test_section_degrees_match_quotients_row_by_row(text):
    group = evaluate(parse(text))
    rows = list(_section_degrees(_sections_lattice(group)))
    quotients = list(sections(group))
    assert len(rows) == len(quotients)
    for (h, normal, value), q in zip(rows, quotients):
        inner = sum(1 << i for i, e in enumerate(h.elems) if normal.contains(e))
        assert is_normal(Subgroup(subgroup_as_group(h), inner))
        assert q.order == h.size // normal.size
        assert value == csd(q, max_order=q.order) == brute_csd(q), (h, normal)
    own = [value for h, normal, value in rows if normal.size == 1]
    lone = [value for _, _, value in _section_degrees(_sections_lattice(group), False)]
    assert lone == own
    assert len(own) == len(subgroup_lattice(group))


def test_guardrails():
    with pytest.raises(GuardrailExceeded):
        cyclic_subgroups(cyclic(600, max_order=600))
    with pytest.raises(GuardrailExceeded):
        subgroup_lattice(cyclic(300, max_order=300))
    with pytest.raises(GuardrailExceeded):
        list(sections(cyclic(200, max_order=200)))
    assert len(cyclic_subgroups(cyclic(600, max_order=600), max_order=600)) == tau(600)


def test_sections_meets_its_cap_at_the_call():
    # the cap is met before any section is asked for, with the usual message
    group = dihedral(4)
    with pytest.raises(GuardrailExceeded, match="^order 8 exceeds sections max order 1$"):
        sections(group, max_order=1)
    assert group._lattice is None


def test_guardrails_hold_on_a_warm_cache():
    # every guarded entry meets its cap before any work, on a fresh group and
    # again once a call under the cap has filled the group's caches
    entries = [
        (csd, "cyclic-poset"),
        (cyclic_subgroups, "cyclic-poset"),
        (subgroup_lattice, "lattice"),
        (normal_subgroups, "lattice"),
        (sd, "lattice"),
        (ndeg, "lattice"),
        (cdeg, "lattice"),
        (is_iwasawa, "lattice"),
        (lower_bounds, "lattice"),
        (csd_star, "sections"),
        (sections, "sections"),
    ]
    for entry, kind in entries:
        group = direct_product(cyclic(4), generalized_quaternion(3))
        n = group.order
        message = f"^order {n} exceeds {kind} max order {n - 1}$"
        with pytest.raises(GuardrailExceeded, match=message):
            entry(group, max_order=n - 1)
        assert (group._lattice, group._cyclic_pairs, group._cyclic_poset) == (None, None, None), kind
        entry(group, max_order=n)
        with pytest.raises(GuardrailExceeded, match=message):
            entry(group, max_order=n - 1)


@pytest.mark.parametrize("text", ["S(4)", "S(5)", "Z(4)xQ(8)", "D(8)xZ(2)", "S(3)xS(3)"])
def test_minimum_walk_takes_one_subgroup_per_class(text):
    group = evaluate(parse(text))
    lat = _sections_lattice(group)
    t, inv = group.table, group.inverse
    classes = {
        s.members: frozenset(
            sum(1 << t[t[inv[g]][x]][g] for x in s.elems) for g in range(group.order)
        )
        for s in lat
    }
    rows = list(_section_degrees(lat, minimum=True))
    heads = [h.members for h, normal, _ in rows if normal.size == 1]
    assert len(heads) == len({classes[h] for h in heads}) == len(set(classes.values()))
    # conjugate sections are isomorphic, and the skipped rows are 1
    assert {value for *_, value in rows} == {value for *_, value in _section_degrees(lat)}


def test_each_call_returns_the_cached_subgroups():
    group = dihedral(6)
    for enumerate_ in (subgroup_lattice, cyclic_subgroups):
        first, second = enumerate_(group), enumerate_(group)
        assert first is second
        assert all(type(s) is Subgroup and s.group is group for s in first)
    assert cyclic_subgroups(group) is not subgroup_lattice(group)


def _live_groups():
    return sum(1 for obj in gc.get_objects() if isinstance(obj, FiniteGroup))


def test_cached_enumeration_is_freed_by_the_collector():
    # the cached Subgroups hold their group: a reference cycle, which
    # must not keep the Cayley table alive once the collector runs
    gc.collect()
    before = _live_groups()
    group = direct_product(cyclic(3), dihedral(3))
    for degree in (subgroup_lattice, cyclic_subgroups, sd, csd_star):
        degree(group)
    assert _live_groups() == before + 1
    del group
    gc.collect()
    assert _live_groups() == before
