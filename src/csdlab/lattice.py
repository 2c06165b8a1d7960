"""Subgroup enumeration: cyclic poset, full lattice, normality, permutability.

Subgroups are bitmasks over element indices (see groups.Subgroup). The
full lattice is obtained by closing the set of cyclic subgroups under
pairwise joins; every subgroup is a join of cyclic ones, so this is
exhaustive. Collections are ordered by (size, mask value) so every
enumeration is deterministic.
"""

from __future__ import annotations

from typing import Iterator

from .errors import GuardrailExceeded
from .groups import (
    FiniteGroup,
    Subgroup,
    _conjugation_maps,
    quotient,
    subgroup_as_group,
)

DEFAULT_MAX_ORDER = 512          # cyclic-poset operations
DEFAULT_MAX_LATTICE_ORDER = 256  # full-lattice operations
DEFAULT_MAX_SECTIONS_ORDER = 128  # section enumeration


class CyclicPoset:
    """All cyclic subgroups of one group, deduplicated, in (size, mask) order."""

    __slots__ = ("group", "subgroups")

    def __init__(self, group: FiniteGroup, subgroups: list[Subgroup]):
        self.group = group
        self.subgroups = tuple(subgroups)

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __repr__(self) -> str:
        return f"CyclicPoset({self.group.label!r}, {len(self.subgroups)} subgroups)"


class SubgroupLattice:
    """All subgroups of one group, deduplicated, in (size, mask) order."""

    __slots__ = ("group", "subgroups")

    def __init__(self, group: FiniteGroup, subgroups: list[Subgroup]):
        self.group = group
        self.subgroups = tuple(subgroups)

    def __len__(self) -> int:
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.label!r}, {len(self.subgroups)} subgroups)"


def cyclic_subgroups(group: FiniteGroup, max_order: int | None = None) -> CyclicPoset:
    """The poset of cyclic subgroups: every ⟨g⟩ for g in the group, deduplicated."""
    cap = DEFAULT_MAX_ORDER if max_order is None else max_order
    if group.order > cap:
        raise GuardrailExceeded(
            f"order {group.order} exceeds cyclic-poset max order {cap}"
        )
    t = group.table
    seen: dict[int, int] = {}  # mask -> a generator element
    for a in range(group.order):
        mask = 1
        x = a
        while x != 0:
            mask |= 1 << x
            x = t[x][a]
        seen.setdefault(mask, a)
    masks = sorted(seen, key=lambda m: (m.bit_count(), m))
    return CyclicPoset(group, [Subgroup(group, m) for m in masks])


def _join(group: FiniteGroup, gens: tuple[int, ...]) -> int:
    """Mask of the subgroup generated by the given elements (BFS closure)."""
    t = group.table
    mask = 1
    queue = [0]
    for u in queue:
        row = t[u]
        for g in gens:
            w = row[g]
            if not (mask >> w) & 1:
                mask |= 1 << w
                queue.append(w)
    return mask


def subgroup_lattice(group: FiniteGroup, max_order: int | None = None) -> SubgroupLattice:
    """The full subgroup lattice, as the join-closure of the cyclic subgroups.

    Seeds with every cyclic subgroup (one generator each), then joins
    pairs until no new subgroup appears. Small generating sets are kept
    per subgroup so each join is a cheap closure.
    """
    cap = DEFAULT_MAX_LATTICE_ORDER if max_order is None else max_order
    if group.order > cap:
        raise GuardrailExceeded(
            f"order {group.order} exceeds lattice max order {cap}"
        )
    poset = cyclic_subgroups(group, max_order=group.order)
    masks: list[int] = []
    gens: dict[int, tuple[int, ...]] = {}
    for sub in poset.subgroups:
        g = max(sub.elems, key=lambda e: group.elem_order[e], default=0)
        gens[sub.members] = (g,) if sub.size > 1 else ()
        masks.append(sub.members)
    full = (1 << group.order) - 1
    i = 0
    while i < len(masks):
        a = masks[i]
        for j in range(i):
            b = masks[j]
            u = a | b
            if u == a or u == b or u in gens:
                continue
            joined = u if u == full else _join(group, gens[a] + gens[b])
            if joined not in gens:
                gens[joined] = gens[a] + gens[b]
                masks.append(joined)
        i += 1
    masks.sort(key=lambda m: (m.bit_count(), m))
    return SubgroupLattice(group, [Subgroup(group, m) for m in masks])


def is_normal(sub: Subgroup) -> bool:
    """True iff the subgroup is invariant under conjugation by every element."""
    group = sub.group
    t = group.table
    inv = group.inverse
    mask = sub.members
    for g in range(group.order):
        row = t[g]
        ig = inv[g]
        for x in sub.elems:
            if not (mask >> t[row[x]][ig]) & 1:
                return False
    return True


def normal_subgroups(
    group: FiniteGroup, max_order: int | None = None
) -> list[Subgroup]:
    """All conjugation-invariant subgroups, in lattice order."""
    lat = subgroup_lattice(group, max_order=max_order)
    return [sub for sub in lat.subgroups if is_normal(sub)]


def product_set(h: Subgroup, k: Subgroup) -> int:
    """Bitmask of the product set HK = {h*k}."""
    if h.group is not k.group:
        raise ValueError("subgroups belong to different groups")
    t = h.group.table
    mask = 0
    for a in h.elems:
        row = t[a]
        for b in k.elems:
            mask |= 1 << row[b]
    return mask


def permutes(h: Subgroup, k: Subgroup) -> bool:
    """True iff HK = KH, i.e. the two subgroups permute.

    Fast paths: containment either way; product-set size |H||K|/|H∩K|
    failing Lagrange against |G| (cannot permute); product set covering
    the whole group (must equal KH). Otherwise HK is built and tested
    for inverse-closure, which holds iff HK = KH.
    """
    if h.group is not k.group:
        raise ValueError("subgroups belong to different groups")
    group = h.group
    return _permutes_raw(
        group.table,
        group.inverse,
        group.order,
        h.members,
        h.elems,
        h.size,
        k.members,
        k.elems,
        k.size,
    )


def _permutes_raw(t, inv, n, mh, eh, sh, mk, ek, sk) -> bool:
    union = mh | mk
    if union == mh or union == mk:
        return True
    s = sh * sk // (mh & mk).bit_count()
    if n % s:
        return False
    if s == n:
        return True
    if sh > sk:  # iterate the smaller factor's rows
        mh, eh, sh, mk, ek, sk = mk, ek, sk, mh, eh, sh
    pm = 0
    for a in eh:
        row = t[a]
        for b in ek:
            pm |= 1 << row[b]
    # HK = KH iff HK is inverse-closed, since (HK)^-1 = KH
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
    group = subs[0].group
    position = {s.members: i for i, s in enumerate(subs)}
    if len(position) != len(subs):
        raise ValueError("subgroup collection has duplicates")
    orbits = _conjugacy_orbits(subs, position, _conjugation_maps(group))
    normal = {o[0] for o in orbits if len(o) == 1}
    flat = [j for o in orbits for j in o]
    data = [(s.members, s.elems, s.size) for s in subs]
    t = group.table
    inv = group.inverse
    n = group.order
    total = 0
    start = 0
    for orbit in orbits:
        size = len(orbit)
        if size == 1:
            total += 1 + 2 * (len(flat) - start - 1)
        else:
            mh, eh, sh = data[orbit[0]]
            hits = [
                j in normal or _permutes_raw(t, inv, n, mh, eh, sh, *data[j])
                for j in flat[start:]
            ]
            total += size * (sum(hits[:size]) + 2 * sum(hits[size:]))
        start += size
    return total


def _conjugacy_orbits(subs, position, maps) -> list[list[int]]:
    """Positions of the subgroups grouped into conjugacy orbits, each
    orbit listed from its first member in collection order."""
    seen = [False] * len(subs)
    orbits: list[list[int]] = []
    for i in range(len(subs)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:
            elems = subs[j].elems
            for c in maps:
                mask = 0
                for x in elems:
                    mask |= 1 << c[x]
                p = position.get(mask)
                if p is None:
                    raise ValueError(
                        "subgroup collection is not closed under conjugation"
                    )
                if not seen[p]:
                    seen[p] = True
                    orbit.append(p)
        orbits.append(orbit)
    return orbits


def sections(group: FiniteGroup, max_order: int | None = None) -> Iterator[FiniteGroup]:
    """Yield every section H/N: H a subgroup, N normal in H.

    Includes the group itself (H = G, N = 1) and the trivial section.
    Isomorphic duplicates are not removed. Deterministic order: H in
    lattice order, then N in the lattice order of H.
    """
    cap = DEFAULT_MAX_SECTIONS_ORDER if max_order is None else max_order
    if group.order > cap:
        raise GuardrailExceeded(
            f"order {group.order} exceeds sections max order {cap}"
        )
    lat = subgroup_lattice(group, max_order=group.order)
    for h in lat.subgroups:
        hg = subgroup_as_group(h)
        for nsub in normal_subgroups(hg, max_order=hg.order):
            yield quotient(hg, nsub)
