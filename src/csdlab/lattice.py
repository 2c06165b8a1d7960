"""Subgroup enumeration: cyclic poset, full lattice, normality, permutability.

Subgroups are bitmasks over element indices (see groups.Subgroup). The
full lattice is enumerated by cyclic extension: starting from the cyclic
subgroups, each subgroup H is extended by prime-power elements g with
g^p in H, and <H, g> is closed as a union of cosets of H. Outside the
perfect residual G^(∞) only the g that normalise H are taken, so each
step there has index p; inside it every such g is (see subgroup_lattice
for why this finds every subgroup). Collections are
ordered by (size, mask value) so every enumeration is deterministic.
Each group is enumerated once: its cyclic poset and its lattice are
kept on it, and every call returns those same collections. The pairs
of L1(G) are counted from the conjugacy classes that the group's power
walk found (_cyclic_pairs), with no collection built.
The sections H/N and their csd are walked inside the lattice of G by the
correspondence theorem (_section_degrees), with no quotient table.
Every pair of subgroups, cyclic or not, is tested by ``permutes``' body,
and every count of pairs goes through ``_count_pairs``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterator

from .groups import (
    FiniteGroup,
    Subgroup,
    _check_order,
    _conjugation_maps,
    _coset_closure,
    _derived_mask,
    _elements,
    _invariant,
    _mask_of,
    _orbits,
    _perfect_residual,
    quotient,
    subgroup_as_group,
)
from .intmath import factorize, prime_power


class SubgroupLattice:
    """Subgroups of one group, deduplicated, in (size, mask) order: all of
    them from subgroup_lattice, the cyclic ones from cyclic_subgroups."""

    __slots__ = ("group", "subgroups", "_pairs")

    def __init__(self, group: FiniteGroup, subgroups: list[Subgroup]):
        self.group = group
        self.subgroups = tuple(subgroups)
        self._pairs = None

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.label!r}, {len(self.subgroups)} subgroups)"


CyclicPoset = SubgroupLattice  # the collection cyclic_subgroups returns


def cyclic_subgroups(group: FiniteGroup, max_order: int | None = None) -> CyclicPoset:
    """The poset of cyclic subgroups: every ⟨g⟩ for g in the group, deduplicated.

    Built on first request from the power lists of the group's walk (see
    FiniteGroup), each sorted into its subgroup's elements; csd does not
    need it.
    """
    _check_order(group.order, max_order, "cyclic")
    if group._cyclic_poset is None:
        cyc = group._cyclic_of  # a power list's last entry generates it
        subs = [
            Subgroup._known(group, cyc[p[-1]], tuple(sorted(p)))
            for cls in group._cyclic_classes
            for p in cls
        ]
        subs.sort(key=lambda s: (s.size, s.members))
        group._cyclic_poset = CyclicPoset(group, subs)
    return group._cyclic_poset


def _l1_size(group: FiniteGroup) -> int:
    """|L1(G)|: the number of power lists the group's walk kept."""
    return sum(map(len, group._cyclic_classes))


def _cyclic_pairs(group: FiniteGroup) -> int:
    """The ordered pairs of cyclic subgroups of G that permute, counted once
    from the walk's conjugacy classes and kept on G: csd, sd, csd_star,
    is_iwasawa and the H = G section reuse it."""
    if group._cyclic_pairs is None:
        cyc = group._cyclic_of
        orbits = [[(cyc[p[-1]], p) for p in cls] for cls in group._cyclic_classes]
        group._cyclic_pairs = _count_pairs(group, orbits)
    return group._cyclic_pairs


def subgroup_lattice(group: FiniteGroup, max_order: int | None = None) -> SubgroupLattice:
    """The full subgroup lattice, by cyclic extension with coset closure.

    The worklist starts from the cyclic subgroups. A subgroup H is
    extended only by elements g of prime-power order p^a with g not in H
    and g^p in H, and K = <H, g> joins the worklist if it is new. Let R
    be the perfect residual G^(∞), the last term of the derived series.
    If H and g lie in R, every such g is taken. Otherwise g is taken only
    if it normalises H, which is g^-1 s g in H for each kept generator s
    of H; then |K:H| = p.

    This finds every subgroup K != 1, by induction on the order:

    - If K is not perfect, K/K' is a nontrivial abelian group, so K has
      a normal subgroup M of prime index p. K is generated by its
      elements of prime-power order, so one of them, y, lies outside M.
      Its image in K/M has order p, so y is a p-element; its last p-th
      power y' outside M has y'^p in M, normalises M, and
      <M, y'> = K.
    - If K is perfect, K lies in R, and so does every maximal subgroup
      M of K. As above some prime-power y' outside M has y'^p in M, and
      <M, y'> = K since M is maximal. M and y' lie in R.
    - Only one subgroup per conjugacy class is extended. Conjugation
      carries (M, y') to a pair with the same properties on the class's
      first member: R is characteristic, and normalising is preserved.

    A solvable G has R = 1 and takes only normal steps; a perfect G has
    R = G and takes every candidate.

    K is built as a union of right cosets H*r, closed under the
    generators of H and g, so a closure costs |K| bit sets and
    |K:H| * |gens| lookups. Each step at least doubles the order, so a
    subgroup keeps at most log2|G| generators. Four prunes keep the
    result exact:

    - a normal step gives |K:H| = p, so every element of K outside H
      gives K again, and all of K is done for H;
    - inside R, <H, hg> = <H, g>, so once g is tried the whole coset
      H*g is done for H;
    - a closure holding more than |G|/p elements, p the least prime
      dividing |G|, is G by Lagrange, and stops there;
    - conjugation maps the extensions of H onto those of its
      conjugates, so each new subgroup enters with its whole conjugacy
      class and only that first one is extended.

    The trivial subgroup is not extended: its extensions are the cyclic
    subgroups the worklist starts from.
    """
    _check_order(group.order, max_order, "lattice")
    if group._lattice is None:
        masks = sorted(_lattice_worklist(group), key=lambda m: (m.bit_count(), m))
        group._lattice = SubgroupLattice(group, [Subgroup(group, m) for m in masks])
    return group._lattice


def _lattice_worklist(group: FiniteGroup) -> set[int]:
    """Masks of all subgroups (see subgroup_lattice)."""
    n = group.order
    t = group.table
    full = (1 << n) - 1
    largest_proper = n // min(factorize(n), default=1)
    maps = _conjugation_maps(group)
    roots = _prime_power_roots(group)
    inv = group.inverse
    residual = _perfect_residual(group)
    known: set[int] = set()
    work: list[tuple[int, tuple[int, ...], tuple[int, ...]] | None] = []

    def add_class(mask: int, gens: tuple[int, ...]) -> None:
        known.add(mask)
        conjugates = [_elements(mask)]
        work.append((mask, gens, conjugates[0]))
        for elems in conjugates:
            for c in maps:
                image = [c[x] for x in elems]
                m = _mask_of(image)
                if m not in known:
                    known.add(m)
                    conjugates.append(image)

    # x is the least generator of each <x> not seen before
    for x, mask in enumerate(group._cyclic_of):
        if mask not in known:
            add_class(mask, (x,) if x else ())
    for i, (mh, gh, eh) in enumerate(work):
        work[i] = None  # read once: free its element list before the walk ends
        if mh == 1 or mh == full:
            continue
        todo = 0
        for h in eh:
            todo |= roots[h]
        todo &= ~mh
        inside = mh & residual == mh
        while todo:
            g = (todo & -todo).bit_length() - 1
            normal_step = not (inside and (residual >> g) & 1)
            if not normal_step:
                for h in eh:  # <H, hg> = <H, g>
                    todo &= ~(1 << t[h][g])
            elif maps and not all((mh >> t[t[inv[g]][h]][g]) & 1 for h in gh):
                todo &= ~(1 << g)
                continue
            gk = gh + (g,)
            mk = _coset_closure(t, mh, eh, gk, largest_proper, full)
            if normal_step:
                todo &= ~mk  # |K:H| = p, so each element of K outside H gives K
            if mk not in known:
                add_class(mk, gk)
    return known


def _prime_power_roots(group: FiniteGroup) -> list[int]:
    """roots[h]: mask of the elements g of prime-power order p^a > 1 with g^p = h."""
    roots = [0] * group.order
    # each distinct element order factorised once: its prime, if a prime power
    primes = {o: pk[0] for o in set(group.elem_order) if (pk := prime_power(o))}
    for g in range(1, group.order):
        p = primes.get(group.elem_order[g])
        if p:
            roots[group.power(g, p)] |= 1 << g
    return roots


def is_normal(sub: Subgroup) -> bool:
    """True iff the subgroup is invariant under conjugation by every element.

    Invariance under conjugation by each generator of the group decides
    it, so only the few maps of ``_conjugation_maps`` are tested.
    """
    return _invariant(sub.members, sub.elems, _conjugation_maps(sub.group))


def normal_subgroups(
    group: FiniteGroup, max_order: int | None = None
) -> list[Subgroup]:
    """All conjugation-invariant subgroups, in lattice order."""
    lat = subgroup_lattice(group, max_order=max_order)
    return [sub for sub in lat.subgroups if is_normal(sub)]


def product_set(h: Subgroup, k: Subgroup) -> int:
    """Bitmask of the product set HK = {h*k}, read from the rows of H's elements."""
    if h.group is not k.group:
        raise ValueError("subgroups belong to different groups")
    group = h.group
    rows = group._rows
    mask = 0
    for a in h.elems:
        row = rows[a] or group._row(a)
        for b in k.elems:
            mask |= 1 << row[b]
    return mask


def permutes(h: Subgroup, k: Subgroup) -> bool:
    """True iff HK = KH, i.e. the two subgroups permute.

    This is the one permutability test; csd, sd and csd* all count pairs
    with its body, ``_permutes``, which takes each subgroup as its mask and
    elements. With s = |H||K|/|H∩K| the size of HK, three cases need no
    product: containment either way (they permute), s not dividing |G|
    (Lagrange: they cannot), and s = |G| (HK is G, so equals KH).
    Otherwise HK is built from the rows of H's elements. If HK = KH, HK is
    a subgroup of order s, so a product whose order does not divide s
    shows they do not permute: the products a*K of H's first element
    a != 1 are checked so, and the test returns at the first that fails.
    A product set that gets through is tested for inverse-closure, which
    holds iff HK = KH.
    ``_count_pairs`` passes its orbit representative as H, so counting
    reads only the representatives' rows.
    """
    if h.group is not k.group:
        raise ValueError("subgroups belong to different groups")
    return _permutes(h.group, h.members, h.elems, k.members, k.elems)


def _permutes(group: FiniteGroup, mh: int, eh, mk: int, ek) -> bool:
    """permutes for the subgroups with masks ``mh``, ``mk`` and elements
    ``eh``, ``ek``, each listed from the identity."""
    union = mh | mk
    if union == mh or union == mk:
        return True
    n = group.order
    s = len(eh) * len(ek) // (mh & mk).bit_count()
    if n % s:
        return False
    if s == n:
        return True
    # neither contains the other, so |H|, |K| >= 2 and ``times_k`` returns
    # the tuple of products a*k, k in K, of a row a
    rows = group._rows
    times_k = operator.itemgetter(*ek)
    # HK = KH makes HK a subgroup of order s, whose elements have orders
    # dividing s. Only a*K for H's first element a != 1 (the generator of a
    # power list) is checked, in Python, since that is where a non-permuting
    # cyclic pair shows it; the rest of HK is gathered without a Python loop
    order = group.elem_order
    a = eh[1]
    for x in times_k(rows[a] or group._row(a)):
        if s % order[x]:
            return False
    hk = set()
    for a in eh:
        hk.update(times_k(rows[a] or group._row(a)))
    # HK = KH iff HK is inverse-closed, since (HK)^-1 = KH
    return hk.issuperset(map(group.inverse.__getitem__, hk))


def c1(h: Subgroup, poset: CyclicPoset) -> list[Subgroup]:
    """The cyclic subgroups of the poset that permute with h."""
    return [k for k in poset.subgroups if permutes(h, k)]


def count_permuting_pairs(subgroups) -> int:
    """Number of ordered pairs (H, K) with HK = KH in the given collection.

    The collection must hold distinct subgroups of one group and be closed
    under conjugation (as the cyclic poset and the full lattice are);
    otherwise ValueError is raised. Conjugation maps permuting pairs to
    permuting pairs, so one representative r per conjugacy orbit O is
    tested: O adds |O| * (w + 2x), where w counts the partners of r in O
    and x those in later orbits. A one-element orbit is a normal subgroup,
    which permutes with everything and is never tested.
    """
    subs = list(subgroups)
    if not subs:
        return 0
    group = subs[0].group
    return _count_pairs(group, _conjugacy_orbits(subs, _conjugation_maps(group)))


def _kept_pairs(lat: SubgroupLattice) -> int:
    """count_permuting_pairs of a group's lattice, counted once and kept on it."""
    if lat._pairs is None:
        lat._pairs = count_permuting_pairs(lat.subgroups)
    return lat._pairs


def _count_pairs(group: FiniteGroup, orbits) -> int:
    """The permuting ordered pairs of distinct subgroups of a subgroup K of
    ``group``, given as their conjugacy orbits under K: lists of (mask,
    elements), the first member of each the one tested. Conjugation maps
    permuting pairs to permuting pairs, so an orbit O adds |O| * (w + 2x),
    w counting the partners of its first member in O and x those in later
    orbits. An orbit of one is normal in K and permutes with every member,
    so it is never tested. The orbits are taken largest first, so two
    orbits cost as many tests as the smaller has members."""
    orbits = sorted(orbits, key=len, reverse=True)
    normal = {o[0][0] for o in orbits if len(o) == 1}
    flat = [sub for o in orbits for sub in o]
    total = 0
    start = 0
    for orbit in orbits:
        size = len(orbit)
        if size == 1:
            total += 1 + 2 * (len(flat) - start - 1)
        else:
            mh, eh = orbit[0]
            hits = [mk in normal or _permutes(group, mh, eh, mk, ek) for mk, ek in flat[start:]]
            total += size * (sum(hits[:size]) + 2 * sum(hits[size:]))
        start += size
    return total


def _conjugacy_orbits(subs, maps) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The distinct subgroups ``subs``, as (mask, elements), grouped into
    their orbits under the conjugation ``maps``, each orbit listed from its
    first member in collection order (see groups._orbits). Raises
    ValueError if ``subs`` has duplicates or is not closed under the maps."""
    position = {s.members: i for i, s in enumerate(subs)}
    if len(position) != len(subs):
        raise ValueError("subgroup collection has duplicates")

    def image(c, j: int) -> int:
        mask = 0
        for x in subs[j].elems:
            mask |= 1 << c[x]
        p = position.get(mask)
        if p is None:
            raise ValueError("subgroup collection is not closed under conjugation")
        return p

    return [[(subs[j].members, subs[j].elems) for j in o] for o in _orbits(len(subs), maps, image)]


def sections(group: FiniteGroup, max_order: int | None = None) -> Iterator[FiniteGroup]:
    """Yield every section H/N: H a subgroup, N normal in H.

    Includes the group itself (H = G, N = 1) and the trivial section.
    Isomorphic duplicates are not removed. Deterministic order: H in
    lattice order, then N in the lattice order of H. The sections cap is
    met at the call, before the first section is asked for.
    """
    return (
        quotient(hg, normal)
        for hg in map(subgroup_as_group, _sections_lattice(group, max_order).subgroups)
        for normal in normal_subgroups(hg, max_order=hg.order)
    )


def _sections_lattice(group: FiniteGroup, max_order: int | None = None) -> SubgroupLattice:
    """The lattice of G, under the sections guardrail."""
    _check_order(group.order, max_order, "sections")
    return subgroup_lattice(group, max_order=group.order)


def _section_degrees(
    lat: SubgroupLattice, quotients: bool = True, minimum: bool = False
) -> Iterator[tuple[Subgroup, Subgroup, Fraction]]:
    """(H, N, csd(H/N)) for each section H/N of the lattice's group G, in
    the order of sections(); only the N = 1 rows if ``quotients`` is False.

    Everything is computed on G's table, by the correspondence theorem.
    The cyclic subgroups of H are the <g> for g in H (<g> <= H iff g is in
    H), those of H/N are the N<g>/N, and two of them permute iff N<g> and
    N<g'> permute in G; N<g> is in G's lattice. So their permuting pairs
    are counted with H's conjugation maps and no quotient table. Each
    image N<g> is closed once per call, however many H contain N and g.
    Two kinds of row are 1 without counting. If csd(H) = 1, H is Iwasawa,
    and so is every quotient of H. Only the N = 1 row shows this;
    csd(H/N) = 1 says nothing about H/M for M not containing N. And if N
    contains the derived subgroup H', H/N is abelian.

    With ``minimum`` only the rows that min() needs are yielded: one H per
    conjugacy class of G (conjugate sections are isomorphic), and no N > 1
    rows for an H with csd(H) = 1.
    """
    group = lat.group
    t = group.table
    n = group.order
    full = (1 << n) - 1
    largest_proper = n // min(factorize(n), default=1)
    cyclic_of = group._cyclic_of
    subs = lat.subgroups
    position = {s.members: i for i, s in enumerate(subs)}
    heads = range(len(subs))
    if minimum:
        heads = [position[o[0][0]] for o in _conjugacy_orbits(subs, _conjugation_maps(group))]
    images: dict[tuple[int, int], int] = {}  # (N, <g>) -> N<g>
    one = Fraction(1)
    for i in heads:
        h = subs[i]
        mh = h.members
        maps = _conjugation_maps(group, mh)
        inside = {cyclic_of[x]: x for x in h.elems}  # <x> -> a generator
        if mh == full:
            csd_h = Fraction(_cyclic_pairs(group), len(inside) ** 2)
        else:
            l1 = [subs[position[c]] for c in inside]
            csd_h = Fraction(_count_pairs(group, _conjugacy_orbits(l1, maps)), len(l1) ** 2)
        yield h, subs[0], csd_h
        if not quotients or (minimum and csd_h == 1):
            continue
        # the N holding ``derived`` have csd(H/N) = 1: those holding H', or
        # every N (the empty mask) if H is Iwasawa
        derived = 0 if csd_h == 1 else _derived_mask(group, h.elems, maps)
        for nsub in subs[1 : i + 1]:
            mn = nsub.members
            if mn & mh != mn or not _invariant(mn, nsub.elems, maps):
                continue
            if derived & mn == derived:
                yield h, nsub, one
                continue
            # g normalises N, so N<g> is the union of the cosets N*g^k
            found = set()
            for c, g in inside.items():
                key = (mn, c)
                mk = images.get(key)
                if mk is None:
                    mk = images[key] = _coset_closure(
                        t, mn, nsub.elems, (g,), largest_proper, full
                    )
                found.add(mk)
            l1 = [subs[position[mk]] for mk in found]
            count = _count_pairs(group, _conjugacy_orbits(l1, maps))
            yield h, nsub, Fraction(count, len(found) ** 2)
