"""The randomized/corpus property suites.

Each suite function checks its property over every generated case,
raising AssertionError on the first violation, and returns the number
of cases it checked. The acceptance harness requires at least 100
cases per suite; individual tests assert the same.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from csdlab.degrees import csd, lower_bounds
from csdlab.expr import evaluate, parse
from csdlab.groups import Permutation, direct_product, relabel
from csdlab.lattice import (
    c1,
    count_permuting_pairs,
    cyclic_subgroups,
    is_normal,
    permutes,
    product_set,
    subgroup_lattice,
)

SEED = 20260816


def _groups(corpus):
    return [group for _, group in corpus]


def suite_permutes_symmetry(corpus) -> int:
    """permutes(H, K) == permutes(K, H) over sampled cyclic pairs."""
    rng = random.Random(SEED)
    cases = 0
    for group in _groups(corpus):
        subs = list(cyclic_subgroups(group, max_order=group.order))
        pairs = [(h, k) for h in subs for k in subs]
        for h, k in rng.sample(pairs, min(len(pairs), 40)):
            assert permutes(h, k) == permutes(k, h), (group.label, h.elems, k.elems)
            cases += 1
    return cases


def suite_product_size(corpus) -> int:
    """|HK| * |H ∩ K| == |H| * |K| for sampled subgroup pairs."""
    rng = random.Random(SEED + 1)
    cases = 0
    for group in _groups(corpus):
        subs = list(subgroup_lattice(group, max_order=group.order).subgroups)
        pairs = [(h, k) for h in subs for k in subs]
        for h, k in rng.sample(pairs, min(len(pairs), 40)):
            meet = (h.members & k.members).bit_count()
            size = product_set(h, k).bit_count()
            assert size * meet == h.size * k.size, (group.label, h.elems, k.elems)
            cases += 1
    return cases


def suite_c1_superset(corpus) -> int:
    """C1(H) contains every subgroup of H and every normal cyclic subgroup."""
    cases = 0
    for group in _groups(corpus):
        poset = cyclic_subgroups(group, max_order=group.order)
        normal_cyclic = [k for k in poset if is_normal(k)]
        for h in poset:
            permuting = set(c1(h, poset))
            inside = [k for k in poset if k.members & h.members == k.members]
            for k in inside:
                assert k in permuting, (group.label, h.elems, k.elems)
            for k in normal_cyclic:
                assert k in permuting, (group.label, h.elems, k.elems)
            cases += 1
    return cases


def suite_lower_bounds(corpus) -> int:
    """csd is at least each of the three lattice lower bounds; the
    normal_cyclic bound, counted from the power walk's one-member classes,
    counts the cyclic subgroups that is_normal accepts."""
    cases = 0
    for group in _groups(corpus):
        value = csd(group, max_order=group.order)
        bounds = lower_bounds(group, max_order=group.order)
        poset = cyclic_subgroups(group, max_order=group.order)
        normal = sum(1 for sub in poset.subgroups if is_normal(sub))
        assert bounds.normal_cyclic == Fraction(normal, len(poset)), group.label
        for bound in bounds.all():
            assert value >= bound, (group.label, value, bound)
            cases += 1
    return cases


def suite_csd_one_iff_sd_one(groups) -> int:
    """csd(G) = 1 exactly when sd(G) = 1. sd is counted over the lattice
    here, since degrees.sd answers 1 from csd = 1 by this criterion."""
    cases = 0
    for group in groups:
        csd_v = csd(group, max_order=group.order)
        lat = subgroup_lattice(group, max_order=group.order)
        sd_v = Fraction(count_permuting_pairs(lat.subgroups), len(lat) ** 2)
        assert (csd_v == 1) == (sd_v == 1), (group.label, csd_v, sd_v)
        cases += 1
    return cases


def suite_coprime_multiplicativity() -> int:
    """csd(A x B) == csd(A) * csd(B) when |A| and |B| are coprime."""
    pool = [
        evaluate(parse(text))
        for text in (
            "Z(1)",
            "Z(2)",
            "Z(3)",
            "Z(4)",
            "Z(5)",
            "Z(7)",
            "Z(8)",
            "Z(9)",
            "Z(15)",
            "Ea(2,2)",
            "Ea(3,2)",
            "Ea(5,2)",
            "D(8)",
            "D(16)",
            "Q(8)",
            "Q(16)",
            "SD(16)",
            "M(16)",
            "S(3)",
            "D(6)",
            "ZM(7,3,2)",
            "E(27)",
            "P(2,5,2)",
            "A(4)",
        )
    ]
    cases = 0
    for a in pool:
        for b in pool:
            if gcd(a.order, b.order) != 1 or a.order * b.order > 300:
                continue
            prod = direct_product(a, b)
            left = csd(a, max_order=a.order) * csd(b, max_order=b.order)
            assert csd(prod, max_order=prod.order) == left, (a.label, b.label)
            cases += 1
    return cases


def suite_relabel_invariance(corpus) -> int:
    """csd is unchanged by random relabelings that fix the identity."""
    rng = random.Random(SEED + 2)
    cases = 0
    for group in _groups(corpus):
        if group.order > 16:
            continue
        base = csd(group, max_order=group.order)
        for _ in range(12):
            images = list(range(1, group.order))
            rng.shuffle(images)
            perm = Permutation(tuple([0] + images))
            shuffled = relabel(group, perm)
            assert csd(shuffled, max_order=shuffled.order) == base, group.label
            cases += 1
    return cases


def suite_lagrange(corpus) -> int:
    """Each enumerated subgroup has divisor size and divisor element orders."""
    cases = 0
    for group in _groups(corpus):
        for sub in subgroup_lattice(group, max_order=group.order).subgroups:
            assert group.order % sub.size == 0, (group.label, sub.size)
            assert sub.members.bit_count() == sub.size
            for x in sub.elems:
                assert sub.size % group.elem_order[x] == 0, (group.label, x)
            cases += 1
    return cases


def eq_sd_groups() -> list:
    """At least 100 lattice-cheap groups for the csd=1 iff sd=1 suite."""
    texts = ["Z(%d)" % n for n in range(1, 37)]
    texts += ["D(%d)" % (2 * m) for m in range(2, 23)]
    texts += ["Ea(2,%d)" % k for k in range(1, 5)]
    texts += ["Ea(3,%d)" % k for k in range(1, 4)]
    texts += ["Ea(5,2)", "Ea(7,2)"]
    texts += ["Q(8)", "Q(16)", "Q(32)", "SD(16)", "SD(32)"]
    texts += ["M(16)", "M(32)", "M(27)", "M(125)"]
    texts += ["P(2,3,2)", "P(2,5,2)", "P(2,7,2)", "P(2,7,3)", "P(2,11,2)", "P(3,3,2)"]
    texts += ["ZM(3,4,2)", "ZM(5,4,2)", "ZM(7,3,2)", "ZM(5,2,4)", "ZM(7,6,3)"]
    texts += ["E(27)", "A(4)", "S(3)", "S(4)"]
    texts += [
        "Z(2)xD(8)",
        "Z(3)xS(3)",
        "Z(2)xQ(8)",
        "Z(4)xQ(8)",
        "Z(5)xD(6)",
        "Z(2)xA(4)",
        "Z(3)xQ(8)",
        "Z(2)xZ(4)",
        "Z(2)xZ(6)",
        "Z(2)xZ(12)",
        "Z(6)xZ(6)",
        "Z(4)xZ(4)",
        "S(3)xZ(4)",
        "D(8)xZ(9)",
        "Q(8)xZ(9)",
    ]
    return [evaluate(parse(text)) for text in texts]
