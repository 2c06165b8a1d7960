from fractions import Fraction

import pytest

from csdlab.degrees import (
    cdeg,
    csd,
    csd_coprime_product,
    csd_star,
    d,
    is_iwasawa,
    lower_bounds,
    ndeg,
    sd,
)
from csdlab.errors import GuardrailExceeded
from csdlab.expr import evaluate, parse
from csdlab.groups import center, cyclic, dihedral, heisenberg_E, quotient
from csdlab.lattice import _section_degrees, count_permuting_pairs, sections, subgroup_lattice
from oracle import (
    brute_csd,
    brute_cyclic_subgroups,
    brute_d,
    brute_normals,
    brute_sd,
    brute_subgroups,
)


def G(text):
    return evaluate(parse(text))


# Exact values with an independent enumeration pedigree: every fraction
# below was frozen from the frozenset-based oracle in oracle.py.
CSD_TABLE = [
    ("Z(12)", Fraction(1)),
    ("Ea(2,3)", Fraction(1)),
    ("Q(8)", Fraction(1)),
    ("Z(2)xQ(8)", Fraction(1)),
    ("M(16)", Fraction(1)),
    ("S(3)", Fraction(19, 25)),
    ("Z(3)xS(3)", Fraction(85, 121)),
    ("Z(2)xS(3)", Fraction(19, 25)),
    ("D(8)", Fraction(41, 49)),
    ("Q(16)", Fraction(7, 8)),
    ("SD(16)", Fraction(19, 25)),
    ("A(4)", Fraction(7, 16)),
    ("Z(4)xQ(8)", Fraction(25, 27)),
    ("E(27)", Fraction(22, 49)),
]


@pytest.mark.parametrize("text,value", CSD_TABLE)
def test_csd_frozen_values(text, value):
    assert csd(G(text)) == value


def test_csd_matches_oracle(small_corpus):
    d16 = G("D(16)")
    full_table = ("D(16)/Z", quotient(d16, center(d16)))
    for text, group in small_corpus + [(t, G(t)) for t in ("A(5)", "S(5)")] + [full_table]:
        assert csd(group, max_order=group.order) == brute_csd(group), text


def test_csd_counts_from_the_walk_without_a_cyclic_poset():
    # every degree, and the section walk's H = G row, reads csd's pairs
    # from the power walk's classes; only cyclic_subgroups builds the poset
    for text in ("S(4)", "D(8)xEa(2,2)", "Z(12)", "E(27)"):
        group = G(text)
        value = csd(group)
        for degree in (sd, csd_star, is_iwasawa, cdeg, lower_bounds):
            degree(group)
        whole = [v for h, n, v in _section_degrees(subgroup_lattice(group)) if h.size == group.order]
        assert whole[0] == value == brute_csd(group), text
        assert group._cyclic_poset is None, text


def test_csd_parallel_equals_sequential():
    for text in ("D(16)", "SD(32)", "Z(3)xS(3)"):
        group = G(text)
        assert csd(group, jobs=3) == csd(group)


def test_sd_values_and_oracle():
    assert sd(G("S(3)")) == Fraction(5, 6)
    assert sd(G("D(8)")) == Fraction(23, 25)
    for text in ("S(3)", "D(8)", "A(4)", "Q(8)", "Z(12)"):
        group = G(text)
        assert sd(group) == brute_sd(group), text


def test_ndeg_cdeg():
    s3 = G("S(3)")
    assert ndeg(s3) == Fraction(1, 2)
    assert cdeg(s3) == Fraction(5, 6)
    z = G("Z(12)")
    assert ndeg(z) == 1
    assert cdeg(z) == 1  # every subgroup of a cyclic group is cyclic


def test_d_values():
    assert d(G("S(3)")) == Fraction(1, 2)
    assert d(G("D(8)")) == Fraction(5, 8)
    assert d(G("Z(9)")) == 1
    for text in ("S(3)", "D(8)", "A(4)", "SD(16)", "A(5)", "S(5)"):
        group = G(text)
        assert d(group) == brute_d(group), text


def test_d_of_a4_is_third():
    assert d(G("A(4)")) == Fraction(1, 3)


def test_is_iwasawa():
    assert is_iwasawa(G("Q(8)"))
    assert is_iwasawa(G("M(16)"))
    assert is_iwasawa(G("Z(2)xQ(8)"))
    assert is_iwasawa(G("Z(24)"))
    assert not is_iwasawa(G("S(3)"))
    assert not is_iwasawa(G("D(8)"))
    assert not is_iwasawa(G("Z(4)xQ(8)"))


def test_csd_one_exactly_for_iwasawa(corpus):
    # is_iwasawa and sd's shortcut are csd = 1, so the criterion is checked
    # against the lattice's own pair count
    for text, group in corpus:
        lat = subgroup_lattice(group, max_order=group.order)
        sd_one = count_permuting_pairs(lat.subgroups) == len(lat) ** 2
        assert (csd(group, max_order=group.order) == 1) == sd_one, text
        assert is_iwasawa(group, max_order=group.order) == sd_one, text


def test_is_iwasawa_keeps_the_lattice_guardrail():
    wide = dihedral(150, max_order=300)
    with pytest.raises(GuardrailExceeded, match="^order 300 exceeds lattice max order 256$"):
        is_iwasawa(wide)
    q16 = G("Q(16)")
    with pytest.raises(GuardrailExceeded, match="^order 16 exceeds lattice max order 15$"):
        is_iwasawa(q16, max_order=15)
    assert is_iwasawa(cyclic(300, max_order=300), max_order=300)


def test_iwasawa_answers_build_no_lattice():
    for text in ("Ea(2,5)", "Q(8)", "Z(2)xQ(8)", "M(16)", "Z(24)", "D(8)", "S(4)"):
        group = G(text)
        iwasawa = is_iwasawa(group)
        assert group._lattice is None, text
        if iwasawa:
            assert csd_star(group) == 1
            assert sd(group) == 1
            assert group._lattice is None, text
            if group.order <= 16:  # the exhaustive oracle's reach
                assert brute_sd(group) == 1, text


SECTION_GROUPS = (
    "D(8)", "Q(16)", "SD(16)", "S(4)", "E(27)", "Z(3)xS(3)", "Z(4)xQ(8)", "D(8)xZ(2)", "S(5)",
    "D(128)",
)


@pytest.mark.parametrize("text", SECTION_GROUPS)
def test_csd_star_is_the_minimum_over_every_section(text):
    group = G(text)
    star = csd_star(group, max_order=group.order)
    walk = _section_degrees(subgroup_lattice(group, max_order=group.order))
    assert star == min(value for _, _, value in walk)
    assert star == min(brute_csd(q) for q in sections(group, max_order=group.order))


def test_csd_star():
    assert csd_star(G("D(8)")) == Fraction(41, 49)
    assert csd_star(G("E(27)")) == Fraction(22, 49)
    assert csd_star(G("Z(12)")) == 1
    assert csd_star(cyclic(1)) == 1
    # the quotient of the order-16 quaternion group by its center is
    # the order-8 dihedral group, which drags the section minimum down
    assert csd_star(G("Q(16)")) == Fraction(41, 49)
    assert csd_star(G("Q(8)")) == 1
    # found by enumerating every quotient table (sections() and csd)
    assert csd_star(G("Z(4)xQ(8)")) == Fraction(5, 6)
    assert csd_star(G("Z(3)xS(3)")) == Fraction(85, 121)
    assert csd_star(G("S(4)")) == Fraction(7, 16)


def test_csd_star_at_most_csd(corpus):
    for text, group in corpus:
        if group.order > 64:
            continue
        assert csd_star(group, max_order=group.order) <= csd(
            group, max_order=group.order
        ), text


def test_csd_coprime_product():
    parts = [Fraction(19, 25), Fraction(1), Fraction(22, 49)]
    assert csd_coprime_product(parts) == Fraction(19 * 22, 25 * 49)
    assert csd_coprime_product([]) == 1


def test_lower_bounds_match_oracle(small_corpus):
    for text, group in small_corpus:
        t = group.table
        cycs = brute_cyclic_subgroups(group)
        m = len(cycs)
        abelian = [
            s for s in brute_subgroups(group) if all(t[a][b] == t[b][a] for a in s for b in s)
        ]
        bounds = lower_bounds(group)
        assert bounds.normal_cyclic == Fraction(len(cycs & brute_normals(group)), m), text
        assert bounds.pair_floor == Fraction(2 * m - 1, m * m), text
        assert bounds.abelian_subgroup == max(
            Fraction(sum(1 for c in cycs if c <= s), m) ** 2 for s in abelian
        ), text


def test_lower_bounds_checks_the_lattice_guardrail_before_any_work():
    group = dihedral(150)  # order 300, over the lattice cap of 256
    with pytest.raises(GuardrailExceeded, match="^order 300 exceeds lattice max order 256$"):
        lower_bounds(group)
    assert group._cyclic_poset is None and group._lattice is None


def test_lower_bounds_s3():
    bounds = lower_bounds(G("S(3)"))
    assert bounds.normal_cyclic == Fraction(2, 5)
    assert bounds.pair_floor == Fraction(9, 25)
    assert bounds.abelian_subgroup == Fraction(4, 25)
    value = csd(G("S(3)"))
    assert all(value >= b for b in bounds.all())


def test_degree_range(corpus):
    for text, group in corpus:
        value = csd(group, max_order=group.order)
        assert 0 < value <= 1, text
        assert value.denominator > 0


def test_guardrails():
    big = cyclic(600, max_order=600)
    with pytest.raises(GuardrailExceeded):
        csd(big)
    assert csd(big, max_order=600) == 1
    wide = dihedral(150, max_order=300)
    with pytest.raises(GuardrailExceeded):
        sd(wide)
    # sd checks the lattice guardrail before its csd = 1 shortcut
    with pytest.raises(GuardrailExceeded, match="^order 600 exceeds lattice max order 256$"):
        sd(big)
    e343 = heisenberg_E(7)
    with pytest.raises(GuardrailExceeded):
        csd_star(e343)
