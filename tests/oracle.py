"""Independent brute-force oracles for cross-checking the engine.

Everything here works on raw multiplication tables and frozensets of
element indices. Only ``FiniteGroup`` is imported from the package, for
type hints: no bitmask, orbit, lattice, or degree code is reused, so
agreement between these functions and the engine is a genuine
two-implementation check. ``validate`` checks a group's table and the
element data the engine derived from it.
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


def validate(group: FiniteGroup, check_associativity: bool = True) -> None:
    """Full Cayley-table validation; raises ValueError on the first defect.

    Construction already rejects a table that is not square, whose
    element 0 is not an identity, or where a walked element's powers read
    an entry outside 0..n-1 or never reach 0; only one element per
    conjugacy class of cyclic subgroups is walked, so this checks every
    entry and recomputes every element order and inverse. It builds every
    row. The associativity sweep is O(n^3) and meant for tests and
    debugging, not for routine construction paths.
    """
    n = group.order
    t = group.table
    for row in t:
        for x in row:
            if not 0 <= x < n:
                raise ValueError(f"table entry {x} out of range")
    for a in range(n):
        if t[a][group.inverse[a]] != 0 or t[group.inverse[a]][a] != 0:
            raise ValueError(f"inverse law fails at element {a}")
        x, k = a, 1
        while x != 0 and k <= n:
            x = t[x][a]
            k += 1
        if group.elem_order[a] != k:
            raise ValueError(f"cached element order wrong at {a}")
        if n % k != 0:
            raise ValueError(f"element order {k} does not divide group order {n}")
    if check_associativity:
        rng = range(n)
        for a in rng:
            ra = t[a]
            for b in rng:
                rab = t[ra[b]]
                rb = t[b]
                for c in rng:
                    if rab[c] != ra[rb[c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")


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


def brute_classes(group: FiniteGroup) -> set[frozenset[int]]:
    """Conjugacy classes: each x conjugated by every element g, g^-1 x g."""
    table = group.table
    n = group.order
    inv = [row.index(0) for row in table]
    return {frozenset(table[table[inv[g]][x]][g] for g in range(n)) for x in range(n)}
