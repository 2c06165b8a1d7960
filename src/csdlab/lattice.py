"""Subgroup enumeration: cyclic poset, full lattice, normality, permutability.

Subgroups are bitmasks over element indices (see groups.Subgroup). The
full lattice is enumerated by cyclic extension: starting from the cyclic
subgroups, each subgroup H is extended by the prime-power elements g
with g^p in H, and <H, g> is closed as a union of cosets of H (see
subgroup_lattice for why this finds every subgroup). Collections are
ordered by (size, mask value) so every enumeration is deterministic.
Each group is enumerated once: its cyclic poset and its lattice are
kept on it, and every call returns those same collections.
The sections H/N and their csd are walked inside the lattice of G by the
correspondence theorem (_section_degrees), with no quotient table.
Every pair of subgroups, cyclic or not, is tested by ``permutes``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .groups import (
    DEFAULT_MAX_ORDER,
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
    quotient,
    subgroup_as_group,
)
from .intmath import factorize, prime_power

DEFAULT_MAX_LATTICE_ORDER = 256  # full-lattice operations
DEFAULT_MAX_SECTIONS_ORDER = 128  # section enumeration


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
    """The poset of cyclic subgroups: every ⟨g⟩ for g in the group, deduplicated."""
    _check_order(group.order, max_order, DEFAULT_MAX_ORDER, "cyclic-poset max order")
    if group._cyclic_poset is None:
        group._cyclic_poset = CyclicPoset(group, _sorted_subgroups(group, set(group._cyclic_of)))
    return group._cyclic_poset


def subgroup_lattice(group: FiniteGroup, max_order: int | None = None) -> SubgroupLattice:
    """The full subgroup lattice, by cyclic extension with coset closure.

    The worklist starts from the cyclic subgroups. A subgroup H is
    extended only by elements g of prime-power order p^a with g not in H
    and g^p in H, and K = <H, g> joins the worklist if it is new. This
    finds every subgroup, for solvable and non-solvable groups alike:
    take K != 1 and a maximal subgroup M of K, found by induction on the
    order. K is generated by its elements of prime-power order, so one
    of them, y, lies outside M; its last p-th power y' outside M has
    y'^p in M, and <M, y'> = K since M is maximal.

    K is built as a union of right cosets H*r, closed under the
    generators of H and g, so a closure costs |K| bit sets and
    |K:H| * |gens| lookups. Each step at least doubles the order, so a
    subgroup keeps at most log2|G| generators. Three prunes keep the
    result exact:

    - <H, hg> = <H, g>, so once g is tried the whole coset H*g is done
      for H;
    - a closure holding more than |G|/p elements, p the least prime
      dividing |G|, is G by Lagrange, and stops there;
    - conjugation maps the extensions of H onto those of its
      conjugates, so each new subgroup enters with its whole conjugacy
      class and only that first one is extended.

    The trivial subgroup is not extended: its extensions are the cyclic
    subgroups the worklist starts from.
    """
    _check_order(group.order, max_order, DEFAULT_MAX_LATTICE_ORDER, "lattice max order")
    if group._lattice is None:
        group._lattice = SubgroupLattice(group, _sorted_subgroups(group, _lattice_worklist(group)))
    return group._lattice


def _sorted_subgroups(group: FiniteGroup, masks) -> list[Subgroup]:
    return [Subgroup(group, m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))]


def _lattice_worklist(group: FiniteGroup) -> set[int]:
    """Masks of all subgroups (see subgroup_lattice)."""
    n = group.order
    t = group.table
    full = (1 << n) - 1
    largest_proper = n // min(factorize(n), default=1)
    maps = _conjugation_maps(group)
    roots = _prime_power_roots(group)
    known: set[int] = set()
    work: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []

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
    for mh, gh, eh in work:
        if mh == 1 or mh == full:
            continue
        todo = 0
        for h in eh:
            todo |= roots[h]
        todo &= ~mh
        while todo:
            g = (todo & -todo).bit_length() - 1
            for h in eh:
                todo &= ~(1 << t[h][g])
            gk = gh + (g,)
            mk = _coset_closure(t, mh, eh, gk, largest_proper, full)
            if mk not in known:
                add_class(mk, gk)
    return known


def _prime_power_roots(group: FiniteGroup) -> list[int]:
    """roots[h]: mask of the elements g of prime-power order p^a > 1 with g^p = h."""
    roots = [0] * group.order
    for g in range(1, group.order):
        pk = prime_power(group.elem_order[g])
        if pk is not None:
            roots[group.power(g, pk[0])] |= 1 << g
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
    with it. With s = |H||K|/|H∩K| the size of HK, three cases need no
    product: containment either way (they permute), s not dividing |G|
    (Lagrange: they cannot), and s = |G| (HK is G, so equals KH).
    Otherwise HK is built by ``product_set`` from the rows of H's
    elements, and tested for inverse-closure, which holds iff HK = KH.
    ``_count_pairs`` passes its orbit representative as H, so counting
    reads only the representatives' rows.
    """
    if h.group is not k.group:
        raise ValueError("subgroups belong to different groups")
    mh, mk = h.members, k.members
    union = mh | mk
    if union == mh or union == mk:
        return True
    n = h.group.order
    s = h.size * k.size // (mh & mk).bit_count()
    if n % s:
        return False
    if s == n:
        return True
    pm = product_set(h, k)
    # HK = KH iff HK is inverse-closed, since (HK)^-1 = KH
    inv = h.group.inverse
    m = pm
    while m:
        lsb = m & -m
        m ^= lsb
        if not (pm >> inv[lsb.bit_length() - 1]) & 1:
            return False
    return True


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
    return _count_pairs(subs, _conjugation_maps(subs[0].group))


def _kept_pairs(coll: SubgroupLattice) -> int:
    """count_permuting_pairs of a group's cyclic poset or lattice, counted once
    and kept on it: csd, sd, csd_star, is_iwasawa and the H = G section reuse it."""
    if coll._pairs is None:
        coll._pairs = count_permuting_pairs(coll.subgroups)
    return coll._pairs


def _count_pairs(subs: list[Subgroup], maps) -> int:
    """count_permuting_pairs for distinct subgroups of a subgroup K, closed
    under conjugation by K, whose maps are ``maps``. An orbit of one is then
    normal in K and permutes with every member."""
    position = {s.members: i for i, s in enumerate(subs)}
    if len(position) != len(subs):
        raise ValueError("subgroup collection has duplicates")
    orbits = _conjugacy_orbits(subs, position, maps)
    normal = {o[0] for o in orbits if len(o) == 1}
    flat = [j for o in orbits for j in o]
    total = 0
    start = 0
    for orbit in orbits:
        size = len(orbit)
        if size == 1:
            total += 1 + 2 * (len(flat) - start - 1)
        else:
            rep = subs[orbit[0]]
            hits = [j in normal or permutes(rep, subs[j]) for j in flat[start:]]
            total += size * (sum(hits[:size]) + 2 * sum(hits[size:]))
        start += size
    return total


def _conjugacy_orbits(subs, position, maps) -> list[list[int]]:
    """Positions of the subgroups grouped into conjugacy orbits, each
    orbit listed from its first member in collection order."""

    def image(c, j: int) -> int:
        mask = 0
        for x in subs[j].elems:
            mask |= 1 << c[x]
        p = position.get(mask)
        if p is None:
            raise ValueError("subgroup collection is not closed under conjugation")
        return p

    return _orbits(len(subs), maps, image)


def sections(group: FiniteGroup, max_order: int | None = None) -> Iterator[FiniteGroup]:
    """Yield every section H/N: H a subgroup, N normal in H.

    Includes the group itself (H = G, N = 1) and the trivial section.
    Isomorphic duplicates are not removed. Deterministic order: H in
    lattice order, then N in the lattice order of H.
    """
    for h in _sections_lattice(group, max_order).subgroups:
        hg = subgroup_as_group(h)
        for normal in normal_subgroups(hg, max_order=hg.order):
            yield quotient(hg, normal)


def _sections_lattice(group: FiniteGroup, max_order: int | None = None) -> SubgroupLattice:
    """The lattice of G, under the sections guardrail."""
    _check_order(group.order, max_order, DEFAULT_MAX_SECTIONS_ORDER, "sections max order")
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
        heads = [o[0] for o in _conjugacy_orbits(subs, position, _conjugation_maps(group))]
    images: dict[tuple[int, int], int] = {}  # (N, <g>) -> N<g>
    one = Fraction(1)
    for i in heads:
        h = subs[i]
        mh = h.members
        maps = _conjugation_maps(group, mh)
        inside = {cyclic_of[x]: x for x in h.elems}  # <x> -> a generator
        # lattice order: the order sets _count_pairs' tests (S(5): 919, in element order 963)
        l1 = [subs[j] for j in sorted(position[c] for c in inside)]
        count = _kept_pairs(cyclic_subgroups(group, n)) if mh == full else _count_pairs(l1, maps)
        csd_h = Fraction(count, len(l1) ** 2)
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
            count = _count_pairs([subs[position[mk]] for mk in found], maps)
            yield h, nsub, Fraction(count, len(found) ** 2)
