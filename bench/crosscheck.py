"""Check expected outputs against sources that share no engine code.

Used once, when ``make_expected.py`` records a request's output. The
sources are:

- ``oracle``: the brute-force frozenset oracle in ``tests/oracle.py``
  (cyclic subgroups, csd and d by direct double loops over the Cayley
  table; no bitmask, lattice or degree code);
- ``closed form``: the family formulas in ``csdlab.formulas``, the
  cyclic-subgroup counts of the dihedral, quaternion and semidihedral
  families, and d of the dihedral and quaternion families, written out
  below;
- ``known count``: subgroup counts from the literature (S(5): 156;
  elementary abelian p-groups by Gaussian binomials, so Ea(2,5): 374 and
  Ea(3,4): 212; D(2m): tau(m) + sigma(m)) and the 9 conjugacy classes
  of A(7);
- ``abelian``: in an abelian group every subgroup is normal and every
  pair permutes, so csd = sd = ndeg = d = csd* = 1.

Each check returns the list of sources it used and raises ``Mismatch``
when a value disagrees.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402  (tests/oracle.py)
from csdlab import formulas  # noqa: E402
from csdlab.expr import evaluate, parse  # noqa: E402
from csdlab.intmath import divisors  # noqa: E402

A7_CLASSES = 9
S5_SUBGROUPS = 156


class Mismatch(AssertionError):
    pass


def expect(label: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{label}: output has {got}, independent source has {want}")


def table_rows(stdout: bytes) -> list[dict[str, str]]:
    """Parse the CLI's text table (cells are separated by two or more spaces)."""
    lines = stdout.decode().splitlines()
    fields = re.split(r"\s{2,}", lines[0].strip())
    return [dict(zip(fields, re.split(r"\s{2,}", line.strip()))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# facts about one group


def _gaussian_binomial_sum(p: int, r: int) -> int:
    """Number of subspaces of F_p^r."""
    total = 0
    for k in range(r + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (r - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def _elementary_rank(text: str) -> tuple[int, int] | None:
    """(p, rank) when the expression is a product of Ea(p,k) and Z(p) factors."""
    rank, prime = 0, None
    for factor in text.split("x"):
        m = re.fullmatch(r"Ea\((\d+),(\d+)\)|Z\((\d+)\)", factor)
        if m is None:
            return None
        p, k = (int(m[1]), int(m[2])) if m[1] else (int(m[3]), 1)
        if prime not in (None, p):
            return None
        prime, rank = p, rank + k
    return prime, rank


def known_facts(text: str) -> tuple[dict, str]:
    """Values fixed by family structure, without looking at the table."""
    m = re.fullmatch(r"D\((\d+)\)", text)
    if m:
        half = int(m[1]) // 2
        tau, sigma = len(divisors(half)), sum(divisors(half))
        d = Fraction(half + (3 if half % 2 else 6), 4 * half)
        return (
            {"l1": half + tau, "lattice": tau + sigma,
             "csd": formulas.csd_dihedral(half), "d": d},
            "closed form (dihedral) + known count tau(m)+sigma(m)",
        )
    m = re.fullmatch(r"Q\((\d+)\)", text)
    if m:
        n = int(m[1]).bit_length() - 1
        half = 2 ** (n - 1)
        return (
            {"l1": n + 2 ** (n - 2), "csd": formulas.csd_quaternion(n),
             "d": Fraction(half + 6, 4 * half)},
            "closed form (quaternion)",
        )
    m = re.fullmatch(r"SD\((\d+)\)", text)
    if m:
        n = int(m[1]).bit_length() - 1
        return (
            {"l1": n + 2 ** (n - 2) + 2 ** (n - 3),
             "csd": formulas.csd_semidihedral_observed(n)},
            "closed form (semidihedral, observed)",
        )
    rank = _elementary_rank(text)
    if rank is not None:
        p, r = rank
        lattice = _gaussian_binomial_sum(p, r)
        l1 = (p**r - 1) // (p - 1) + 1
        return (
            {"l1": l1, "lattice": lattice, "csd": Fraction(1), "sd": Fraction(1),
             "ndeg": Fraction(1), "cdeg": Fraction(l1, lattice), "d": Fraction(1),
             "csd_star": Fraction(1), "is_iwasawa": "true"},
            "abelian + known count (Gaussian binomials)",
        )
    if text == "S(5)":
        return {"lattice": S5_SUBGROUPS}, "known count (S(5) has 156 subgroups)"
    if text in ("A(7)",) or text.startswith("Perm(7;"):
        return {"d": Fraction(A7_CLASSES, 2520)}, "known class number (A(7) has 9)"
    return {}, ""


def oracle_facts(group) -> dict:
    cyclic = oracle.brute_cyclic_subgroups(group)
    return {"l1": len(cyclic), "csd": oracle.brute_csd(group), "d": oracle.brute_d(group)}


def build(text: str, max_order: int = 512):
    return evaluate(parse(text), max_order=max_order)


# ---------------------------------------------------------------------------
# per-verb checks


def _check_values(row: dict[str, str], facts: dict, label: str) -> None:
    for name, want in facts.items():
        cell = row[name]
        got = cell if isinstance(want, str) else (
            int(cell) if isinstance(want, int) else Fraction(cell))
        expect(f"{label} {name}", got, want)


def check_compute(argv: list[str], stdout: bytes) -> list[str]:
    text = argv[argv.index("--group") + 1]
    cap = int(argv[argv.index("--max-order") + 1]) if "--max-order" in argv else 512
    (row,) = table_rows(stdout)
    expect("group label", row["group"], text)
    group = build(text, cap)
    expect(f"{text} order", int(row["order"]), group.order)
    _check_values(row, oracle_facts(group), text)
    sources = ["oracle (l1, csd, d)"]
    known, source = known_facts(text)
    if "--all" not in argv:
        known = {k: v for k, v in known.items() if k in ("l1", "csd", "d")}
    if known:
        _check_values(row, known, text)
        sources.append(f"{source} ({', '.join(known)})")
    return sources


def check_lattice(argv: list[str], stdout: bytes) -> list[str]:
    text = argv[argv.index("--group") + 1]
    group = build(text)
    subs = []
    for line in stdout.decode().splitlines():
        m = re.fullmatch(r"size=(\d+) members=([\d,]+)", line)
        if m is None:
            raise Mismatch(f"{text}: unreadable line {line!r}")
        members = frozenset(int(x) for x in m[2].split(","))
        expect(f"{text} size", int(m[1]), len(members))
        if 0 not in members or not oracle.is_closed(group.table, members):
            raise Mismatch(f"{text}: {sorted(members)[:8]}... is not a subgroup")
        subs.append(members)
    if len(set(subs)) != len(subs):
        raise Mismatch(f"{text}: a subgroup is listed twice")
    missing = oracle.brute_cyclic_subgroups(group) - set(subs)
    if missing:
        raise Mismatch(f"{text}: {len(missing)} cyclic subgroups are missing")
    sources = ["oracle (every line closed, every cyclic subgroup present)"]
    known, source = known_facts(text)
    if "lattice" in known:
        expect(f"{text} subgroup count", len(subs), known["lattice"])
        sources.append(f"{source} (count)")
    return sources


def check_scan_eq(argv: list[str], stdout: bytes) -> list[str]:
    groups = argv[2:argv.index("--jobs")]
    listed = {row["group"]: row for row in table_rows(stdout)}
    unchecked = []
    for text in groups:
        csd = oracle.brute_csd(build(text))
        known, _ = known_facts(text)
        if csd == 1:
            if text in listed:
                raise Mismatch(f"{text} has csd 1 but is listed")
        elif text in listed:
            expect(f"{text} csd", Fraction(listed[text]["csd"]), csd)
        elif "sd" not in known:
            unchecked.append(text)
    sources = ["oracle (csd of every group; csd = 1 rules a group out)"]
    if unchecked:
        sources.append(f"sd not cross-checked for {', '.join(unchecked)}")
    return sources


VERIFY_BUILDERS = {
    "dihedral": lambda v: [(f"m={v}", formulas.csd_dihedral(v), f"D({2 * v})")] if v >= 2 else [],
    "quaternion": lambda v: [(f"n={v}", formulas.csd_quaternion(v), f"Q({2 ** v})")],
    "semidihedral": lambda v: [(f"n={v}", formulas.csd_semidihedral(v), f"SD({2 ** v})")],
    "ep3": lambda v: [(f"p={v}", formulas.csd_E_p3(v), f"E({v ** 3})")] if v in (3, 5, 7) else [],
}
VERIFY_FORMULAS = {
    "dihedral": "csd_dihedral",
    "quaternion": "csd_quaternion",
    "semidihedral": "csd_semidihedral; brute matches csd_semidihedral_observed",
    "ep3": "csd_E_p3",
}
ORACLE_MAX_ORDER = 128  # oracle recomputation of verify rows stays cheap


def check_verify(argv: list[str], stdout: bytes, exit_code: int) -> list[str]:
    family = argv[1]
    lo, hi = (int(x) for x in argv[2].split(".."))
    rows = table_rows(stdout)
    by_params = {row["params"]: row for row in rows}
    if family == "pgroup":
        for row in rows:
            n, p = (int(x) for x in re.findall(r"[np]=(\d+)", row["params"]))
            expect(f"{row['params']} formula", Fraction(row["formula"]), formulas.csd_P_group(n, p))
            expect(f"{row['params']} brute", Fraction(row["brute"]), formulas.csd_P_group(n, p))
        sources = ["closed form (csd_P_group) on every row"]
    else:
        oracle_rows = 0
        for v in range(lo, hi + 1):
            for params, formula, text in VERIFY_BUILDERS[family](v):
                row = by_params.get(params)
                if row is None:
                    raise Mismatch(f"{family} {params}: row missing")
                expect(f"{params} formula", Fraction(row["formula"]), formula)
                want = formulas.csd_semidihedral_observed(v) if family == "semidihedral" else formula
                expect(f"{params} brute", Fraction(row["brute"]), want)
                group = build(text)
                if group.order <= ORACLE_MAX_ORDER:
                    expect(f"{params} oracle", Fraction(row["brute"]), oracle.brute_csd(group))
                    oracle_rows += 1
        expect(f"{family} rows", len(rows), len(by_params))
        sources = [f"closed form ({VERIFY_FORMULAS[family]}) on every row",
                   f"oracle on the {oracle_rows} rows of order <= {ORACLE_MAX_ORDER}"]
    want_exit = 1 if any(row["match"] == "no" for row in rows) else 0
    expect(f"{family} exit code", exit_code, want_exit)
    return sources


def check(argv: list[str], exit_code: int, stdout: bytes) -> list[str]:
    verb = argv[0]
    if verb == "verify":
        return check_verify(argv, stdout, exit_code)
    expect(f"{' '.join(argv)} exit code", exit_code, 0)
    if verb == "compute":
        return check_compute(argv, stdout)
    if verb == "lattice":
        return check_lattice(argv, stdout)
    if verb == "scan" and argv[1] == "csd-eq-sd":
        return check_scan_eq(argv, stdout)
    raise ValueError(f"no cross-check for {' '.join(argv)}")
