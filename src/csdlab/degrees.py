"""Exact probabilistic degrees of a finite group, by enumeration.

Every degree is a fractions.Fraction in lowest terms, never a float:

  csd  probability that two random cyclic subgroups permute
  sd   same probability over the full subgroup lattice
  ndeg proportion of subgroups that are normal
  cdeg proportion of subgroups that are cyclic
  d    probability that two random elements commute
  csd* minimum of csd over all sections H/N

Pair counts are over ordered pairs. Conjugation preserves permutability
and commutativity, so csd and sd test one subgroup per conjugacy orbit
and d counts conjugacy classes. Each count is made once per group and
kept: csd's from the classes of cyclic subgroups that the group's power
walk found (lattice._cyclic_pairs; no cyclic poset is built), sd's over
the lattice (lattice.count_permuting_pairs).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ._record import Frozen
from .groups import FiniteGroup, _check_order, _conjugation_maps, _orbits
from .lattice import (
    _cyclic_pairs,
    _kept_pairs,
    _l1_size,
    _section_degrees,
    is_normal,
    subgroup_lattice,
)

Degree = Fraction


def csd(group: FiniteGroup, jobs: int | None = None, max_order: int | None = None) -> Degree:
    """Cyclic subgroup commutativity degree: permuting pairs over |L1|^2.

    ``jobs`` is kept for compatibility and starts no processes: with one
    pair test per conjugacy orbit, pickling the table to workers cost
    more than the tests it would share out.
    """
    _check_order(group.order, max_order, "cyclic")
    return Fraction(_cyclic_pairs(group), _l1_size(group) ** 2)


def sd(group: FiniteGroup, max_order: int | None = None) -> Degree:
    """Subgroup commutativity degree over the full lattice.

    1 with no lattice built if csd(G) = 1: G is then Iwasawa (see
    is_iwasawa). The lattice guardrail applies either way.
    """
    _check_order(group.order, max_order, "lattice")
    if csd(group, max_order=group.order) == 1:
        return Fraction(1)
    lat = subgroup_lattice(group, max_order=group.order)
    return Fraction(_kept_pairs(lat), len(lat) ** 2)


def ndeg(group: FiniteGroup, max_order: int | None = None) -> Degree:
    """Proportion of subgroups that are normal."""
    lat = subgroup_lattice(group, max_order=max_order)
    normal = sum(1 for sub in lat.subgroups if is_normal(sub))
    return Fraction(normal, len(lat.subgroups))


def cdeg(group: FiniteGroup, max_order: int | None = None) -> Degree:
    """Proportion of subgroups that are cyclic."""
    lat = subgroup_lattice(group, max_order=max_order)
    return Fraction(_l1_size(group), len(lat.subgroups))


def d(group: FiniteGroup) -> Degree:
    """Probability that two uniformly random elements commute.

    Equals k(G)/|G|, k(G) the number of conjugacy classes, since the
    commuting pairs number sum |C_G(x)| = k(G)|G|. The classes are the
    orbits of conjugation by a generating set.
    """
    classes = _orbits(group.order, _conjugation_maps(group), operator.getitem)
    return Fraction(len(classes), group.order)


def is_iwasawa(group: FiniteGroup, max_order: int | None = None) -> bool:
    """True iff every pair of subgroups permutes (sd = 1).

    Decided as csd = 1, the paper's criterion: if H permutes with A and
    with B, it permutes with <A, B>, so cyclic subgroups permuting
    pairwise makes all subgroups permute. No lattice is built, but the
    lattice guardrail applies, as to every other lattice property.
    """
    _check_order(group.order, max_order, "lattice")
    return csd(group, max_order=group.order) == 1


def csd_star(group: FiniteGroup, max_order: int | None = None) -> Degree:
    """Minimum of csd over all sections H/N (the group itself included).

    If csd(G) = 1, G is Iwasawa, and so is every section: the answer is 1
    and no lattice is built. Otherwise one H per conjugacy class is
    visited, with no N > 1 for an Iwasawa H, and each image N<g> is closed
    once for the call (lattice._section_degrees with ``minimum``).
    """
    _check_order(group.order, max_order, "sections")
    if csd(group, max_order=group.order) == 1:
        return Fraction(1)
    lat = subgroup_lattice(group, max_order=group.order)
    return min(value for _, _, value in _section_degrees(lat, minimum=True))


def csd_coprime_product(degrees: list[Degree]) -> Degree:
    """Product of csd values; valid for groups of pairwise coprime orders."""
    out = Fraction(1)
    for deg in degrees:
        out *= deg
    return out


class LowerBounds(Frozen):
    """The three elementary lower bounds on csd(G).

    normal_cyclic: |N(G) ∩ L1(G)| / |L1(G)| — normal cyclic subgroups
        permute with everything. A cyclic subgroup is normal iff its
        conjugacy class has one member.
    pair_floor: (2|L1(G)| − 1) / |L1(G)|^2 — every subgroup permutes
        with itself, the trivial subgroup and G.
    abelian_subgroup: max over abelian subgroups M of
        (|L1(M)| / |L1(G)|)^2 — permuting pairs inside M stay permuting.
    """

    __slots__ = ("normal_cyclic", "pair_floor", "abelian_subgroup")

    def __init__(self, normal_cyclic: Degree, pair_floor: Degree, abelian_subgroup: Degree):
        self._fill(normal_cyclic, pair_floor, abelian_subgroup)

    def all(self) -> tuple[Degree, Degree, Degree]:
        return (self.normal_cyclic, self.pair_floor, self.abelian_subgroup)


def lower_bounds(group: FiniteGroup, max_order: int | None = None) -> LowerBounds:
    """Evaluate the three lower bounds; needs the full lattice for the abelian
    one, so the lattice guardrail is checked before any work."""
    _check_order(group.order, max_order, "lattice")
    m = _l1_size(group)
    normal_cyclic = Fraction(sum(1 for cls in group._cyclic_classes if len(cls) == 1), m)
    pair_floor = Fraction(2 * m - 1, m * m)
    lat = subgroup_lattice(group, max_order=group.order)
    cyc = group._cyclic_of  # |L1(M)| counts the <x> for x in M
    l1 = sorted(((len({cyc[x] for x in s.elems}), s.members) for s in lat.subgroups), reverse=True)
    # the first abelian M in decreasing |L1(M)| (the trivial one at worst) sets the maximum
    l1m = next(c for c, mask in l1 if not _conjugation_maps(group, mask))
    return LowerBounds(normal_cyclic, pair_floor, Fraction(l1m, m) ** 2)

