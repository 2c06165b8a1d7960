"""The benchmark's workloads, their seeded draws, and expected outputs.

A workload is a list of slots. Each slot is a pool of CLI requests of the
same shape and similar cost; entry 0 of every pool is the seed-0 corpus.
Seed 0 takes entry 0 of every slot. Any other seed draws each slot from
the rest of its pool, so a claim made on seed 0 can be rechecked on
inputs not used while making it. Every request runs with ``--jobs 1``.

Expected outputs live in ``expected/``: ``manifest.json`` maps each
request (its argv joined by spaces) to its exit code, the file holding its
stdout bytes, and the independent sources its values were checked against
when the file was made (see ``make_expected.py``).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from harness import Request

EXPECTED = Path(__file__).resolve().parent / "expected"
MANIFEST = EXPECTED / "manifest.json"

SCAN_LISTS = (
    ("Ea(2,5)", "D(128)", "S(5)", "Ea(3,4)", "Z(2)xZ(2)xQ(8)"),
    ("Ea(2,2)xEa(2,3)", "Z(2)xQ(64)", "Z(2)xA(5)", "Z(3)xEa(3,3)", "Q(8)xZ(2)xZ(2)"),
    ("Ea(2,4)xZ(2)", "Z(4)xQ(32)", "A(5)xZ(2)", "Ea(3,3)xZ(3)", "Z(2)xQ(8)xZ(2)"),
    ("Z(2)xEa(2,4)", "Q(64)xZ(2)", "Perm(5; (0 1 2 3), (3 4))", "Ea(3,2)xEa(3,2)", "Z(4)xQ(8)"),
)

A7_PRESENTATIONS = (
    "A(7)",
    "Perm(7; (0 1 2), (0 1 2 3 4 5 6))",
    "Perm(7; (0 1 2 3 4 5 6), (0 1 3))",
)


def _group_pool(prefix: tuple[str, ...], groups) -> list[tuple[str, ...]]:
    return [(*prefix, "--group", g) for g in groups]


WORKLOADS: dict[str, list[list[tuple[str, ...]]]] = {
    # compute --all on an order-128 2-group, an order-120 group and Ea(2,5)
    # up to isomorphism: G's lattice is rebuilt for every degree and once
    # per section subgroup H.
    "all-degrees": [
        _group_pool(("compute", "--all"), ("D(128)", "Z(2)xQ(64)", "Q(64)xZ(2)", "Z(4)xQ(32)")),
        _group_pool(
            ("compute", "--all"),
            ("S(5)", "Z(2)xA(5)", "A(5)xZ(2)", "Perm(5; (0 1 2 3), (3 4))"),
        ),
        _group_pool(
            ("compute", "--all"),
            ("Ea(2,5)", "Ea(2,2)xEa(2,3)", "Ea(2,4)xZ(2)", "Z(2)xEa(2,4)"),
        ),
    ],
    # One full lattice per group, each built exactly once.
    "one-lattice": [
        _group_pool(("lattice",), ("D(256)", "D(224)", "D(228)")),
        _group_pool(("lattice",), ("Ea(3,4)", "Z(3)xEa(3,3)", "Ea(3,3)xZ(3)", "Ea(3,2)xEa(3,2)")),
        [("scan", "csd-eq-sd", *groups) for groups in SCAN_LISTS],
    ],
    # No full lattice: Cayley-table builds and cyclic pair tests. Each
    # verify sweep already covers its family up to the default order cap,
    # so those slots have one entry; seeds vary the compute requests.
    "csd-sweep": [
        [("verify", "pgroup", "3..6")],
        [("verify", "dihedral", "2..60")],
        [("verify", "quaternion", "3..9")],
        [("verify", "semidihedral", "4..9")],
        [("verify", "ep3", "3..7")],
        _group_pool(("compute",), ("Ea(2,9)", "Z(2)xEa(2,8)", "Ea(2,4)xEa(2,5)", "Ea(2,5)xEa(2,4)")),
        _group_pool(("compute",), ("D(512)", "Q(512)", "SD(512)", "D(504)")),
        _group_pool(("compute", "--max-order", "2520"), A7_PRESENTATIONS),
    ],
}

PINNED = ("--jobs", "1")


class MissingExpected(LookupError):
    pass


def draw(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The argv of every request of one run, in order."""
    slots = WORKLOADS[workload]
    if seed == 0:
        picked = [pool[0] for pool in slots]
    else:
        rng = random.Random(f"{workload}/{seed}")
        picked = [rng.choice(pool[1:]) if len(pool) > 1 else pool[0] for pool in slots]
    return [argv + PINNED for argv in picked]


def all_argvs() -> list[tuple[str, ...]]:
    """Every request any seed can draw, each once."""
    seen: dict[tuple[str, ...], None] = {}
    for slots in WORKLOADS.values():
        for pool in slots:
            for argv in pool:
                seen.setdefault(argv + PINNED, None)
    return list(seen)


def slug(argv: tuple[str, ...]) -> str:
    """A file name for one request's expected stdout."""
    text = "_".join(a for a in argv if a not in PINNED)
    return re.sub(r"[^A-Za-z0-9.,-]+", "_", text).strip("_") + ".out"


def load_manifest() -> dict:
    if not MANIFEST.exists():
        return {}
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def requests(workload: str, seed: int, manifest: dict | None = None) -> list[Request]:
    manifest = load_manifest() if manifest is None else manifest
    out = []
    for argv in draw(workload, seed):
        entry = manifest.get(" ".join(argv))
        if entry is None:
            raise MissingExpected(f"no expected output for {' '.join(argv)!r}")
        stdout = (EXPECTED / entry["stdout"]).read_bytes()
        out.append(Request(argv, entry["exit"], stdout))
    return out
