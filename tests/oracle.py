"""Independent brute-force oracles for cross-checking the engine.

Everything here works on raw multiplication tables and frozensets of
element indices. No bitmask, lattice, or degree code from the package
is reused, so agreement between these functions and the engine is a
genuine two-implementation check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from csdlab.groups import FiniteGroup


def is_closed(table, members: frozenset[int]) -> bool:
    """True when the subset is closed under the table's product."""
    for a in members:
        row = table[a]
        for b in members:
            if row[b] not in members:
                return False
    return True


def closure(table, seed) -> frozenset[int]:
    """Smallest product-closed subset containing the seed and identity."""
    out = {0} | set(seed)
    frontier = list(out)
    while frontier:
        fresh = []
        for a in list(out):
            row = table[a]
            for b in frontier:
                c = row[b]
                if c not in out:
                    out.add(c)
                    fresh.append(c)
                c = table[b][a]
                if c not in out:
                    out.add(c)
                    fresh.append(c)
        frontier = fresh
    return frozenset(out)


@lru_cache(maxsize=None)
def brute_subgroups(group: FiniteGroup) -> frozenset[frozenset[int]]:
    """Every identity-containing product-closed subset, by exhaustive search.

    A product-closed subset of a finite group is a subgroup (powers of
    each element cycle back to the identity), so for orders above 16 the
    enumeration may skip subset sizes that do not divide the group order
    without losing any closed subset. The search costs seconds at order
    24, so each group's answer is kept for the rest of the session.
    """
    n = group.order
    table = group.table
    rest = range(1, n)
    found: set[frozenset[int]] = set()
    if n <= 16:
        sizes = range(0, n)
    else:
        sizes = [k - 1 for k in range(1, n + 1) if n % k == 0]
    for extra in sizes:
        for combo in combinations(rest, extra):
            members = frozenset((0, *combo))
            if is_closed(table, members):
                found.add(members)
    return frozenset(found)


def brute_cyclic_subgroups(group: FiniteGroup) -> set[frozenset[int]]:
    """The cyclic subgroups, as closures of single elements."""
    return {closure(group.table, (x,)) for x in range(group.order)}


def set_product(table, left: frozenset[int], right: frozenset[int]) -> frozenset[int]:
    return frozenset(table[a][b] for a in left for b in right)


def brute_permutes(table, left: frozenset[int], right: frozenset[int]) -> bool:
    return set_product(table, left, right) == set_product(table, right, left)


def brute_csd(group: FiniteGroup) -> Fraction:
    """csd by direct double loop over set products of cyclic subgroups."""
    table = group.table
    cycs = sorted(brute_cyclic_subgroups(group), key=lambda s: (len(s), sorted(s)))
    hits = sum(
        1 for h in cycs for k in cycs if brute_permutes(table, h, k)
    )
    return Fraction(hits, len(cycs) ** 2)


def brute_sd(group: FiniteGroup) -> Fraction:
    table = group.table
    subs = sorted(brute_subgroups(group), key=lambda s: (len(s), sorted(s)))
    hits = sum(
        1 for h in subs for k in subs if brute_permutes(table, h, k)
    )
    return Fraction(hits, len(subs) ** 2)


def brute_normals(group: FiniteGroup) -> set[frozenset[int]]:
    """Subgroups invariant under conjugation by every element."""
    table = group.table
    inv = group.inverse
    out = set()
    for members in brute_subgroups(group):
        if all(
            table[table[g][x]][inv[g]] in members
            for g in range(group.order)
            for x in members
        ):
            out.add(members)
    return out


def brute_center(group: FiniteGroup) -> frozenset[int]:
    table = group.table
    n = group.order
    return frozenset(
        x for x in range(n) if all(table[x][g] == table[g][x] for g in range(n))
    )


def brute_derived(group: FiniteGroup) -> frozenset[int]:
    """Closure of all |G|^2 commutators a^-1 b^-1 a b."""
    table = group.table
    inv = group.inverse
    n = group.order
    return closure(
        table,
        {table[table[table[inv[a]][inv[b]]][a]][b] for a in range(n) for b in range(n)},
    )


def brute_is_nilpotent(group: FiniteGroup) -> bool:
    """Nilpotency via the upper central series on a quotient-free encoding.

    Z_0 = 1, and Z_{i+1} is the set of x whose commutator with every g
    lands in Z_i; the group is nilpotent iff the chain reaches the whole
    group.
    """
    table = group.table
    inv = group.inverse
    n = group.order
    current = {0}
    while True:
        nxt = {
            x
            for x in range(n)
            if all(
                table[table[inv[x]][inv[g]]][table[x][g]] in current
                for g in range(n)
            )
        }
        if len(nxt) == n:
            return True
        if nxt == current:
            return False
        current = nxt


def brute_d(group: FiniteGroup) -> Fraction:
    table = group.table
    n = group.order
    hits = sum(
        1 for a in range(n) for b in range(n) if table[a][b] == table[b][a]
    )
    return Fraction(hits, n * n)
