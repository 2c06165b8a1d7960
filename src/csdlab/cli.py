"""Command-line front end.

Verbs:
    compute   degrees for one expressed group, or a JSON batch
    verify    closed-form formulas against brute-force enumeration
    scan      threshold / counterexample hunts over a list of groups
    lattice   dump the full subgroup lattice of one group
    sections  list every section H/N of one group with its degree

Exit codes: 0 success (verify: all rows match), 1 verification mismatch,
2 usage or expression error, 3 guardrail exceeded. Output is
byte-identical across repeated runs; wall-clock timing is only included
when asked for (--timing), so default reports stay deterministic.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time
from fractions import Fraction
from typing import NamedTuple, Sequence

from .degrees import cdeg, csd, csd_star, d, is_iwasawa, ndeg, sd
from .errors import GuardrailExceeded
from .expr import evaluate, parse
from .formulas import (
    csd_E_p3,
    csd_dihedral,
    csd_lower_bound_Zn_Q8,
    csd_P_group,
    csd_quaternion,
    csd_semidihedral,
)
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, _cap, _check_order
from .intmath import is_prime, primes_in
from .lattice import _l1_size, _section_degrees, _sections_lattice, subgroup_lattice
from .reports import FORMATS, RunReport, emit, emit_rows

VERIFY_FAMILIES = ("dihedral", "quaternion", "semidihedral", "pgroup", "ep3", "zq8bound")
SCAN_MODES = ("csd-eq-sd", "monotonicity", "csd-star")

IWASAWA_THRESHOLD = Fraction(41, 49)
NILPOTENT_THRESHOLD = Fraction(19, 25)


class Caps(NamedTuple):
    """Guardrail ceilings; None means the library default applies."""

    order: int | None
    lattice: int | None
    sections: int | None


def _resolve_caps(args: argparse.Namespace) -> Caps:
    order = args.max_order
    if order is None:
        env = os.environ.get("CSDLAB_MAX_ORDER")
        if env is not None:
            try:
                order = _positive_int(env)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"CSDLAB_MAX_ORDER {exc}") from None
    return Caps(order, args.max_lattice_order, args.max_sections_order)


def _evaluate(text: str, caps: Caps) -> FiniteGroup:
    return evaluate(parse(text), max_order=caps.order)


def _map_tasks(worker, tasks: list, jobs: int) -> list:
    """``worker`` over the tasks in order, in a process pool when jobs > 1.

    The pool gets at most one worker per task, since it starts every
    worker up front.
    """
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# compute


# op -> (its value in a group's report, from the group and the op's cap; the
# Caps field of that cap, also its kind of work in groups._GUARDS), in the
# order compute runs them. csd and d need only the order cap, met by the build.
_OPS = {
    "csd": (lambda group, cap: csd(group, max_order=group.order), "order"),
    "d": (lambda group, cap: d(group), "order"),
    "lattice": (lambda group, cap: len(subgroup_lattice(group, max_order=cap)), "lattice"),
    "sd": (sd, "lattice"),
    "ndeg": (ndeg, "lattice"),
    "cdeg": (cdeg, "lattice"),
    "csd_star": (csd_star, "sections"),
    "is_iwasawa": (is_iwasawa, "lattice"),
}


def _requested_ops(names: list) -> frozenset[str]:
    """csd and d, which every report holds, and the ops that ``names`` lists
    ("all" lists every op)."""
    if not isinstance(names, list):
        raise ValueError("ops must be a list")
    for name in names:
        if name != "all" and not (isinstance(name, str) and name in _OPS):
            raise ValueError(f"unknown op {name!r}")
    return frozenset(["csd", "d", *(_OPS if "all" in names else names)])


def _compute_report(task: tuple[str, frozenset, Caps, bool]) -> RunReport:
    """The report of one group with the requested ops, run from ``_OPS``.
    Every op's cap is met, in table order, before any op runs: a request
    over a cap raises the error of its first op over one, having done no
    work beyond building the group."""
    text, ops, caps, timing = task
    start = time.perf_counter()
    group = _evaluate(text, caps)
    todo = [(op, run, work, getattr(caps, work)) for op, (run, work) in _OPS.items() if op in ops]
    for _, _, work, cap in todo:
        _check_order(group.order, cap, work)
    values = {op: run(group, cap) for op, run, _, cap in todo}
    report = RunReport(group=text, order=group.order, l1=_l1_size(group), **values)
    if timing:
        report.wall_ms = (time.perf_counter() - start) * 1000.0
    return report


def _batch_tasks(args: argparse.Namespace, caps: Caps) -> list[tuple]:
    if args.batch == "-":
        raw = sys.stdin.read()
    else:
        with open(args.batch, "r", encoding="utf-8") as handle:
            raw = handle.read()
    import json  # loaded only for --batch

    try:
        entries = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"batch input is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise ValueError("batch input must be a JSON array")
    tasks = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("group"), str):
            raise ValueError(f'batch entry {i} must be an object with a "group" string')
        try:
            tasks.append((entry["group"], _requested_ops(entry.get("ops", [])), caps, args.timing))
        except ValueError as exc:
            raise ValueError(f"batch entry {i}: {exc}") from None
    return tasks


def _batch_report(task: tuple[int, tuple]) -> RunReport:
    """`_compute_report` of batch entry i, with the entry named in its error."""
    i, entry = task
    try:
        return _compute_report(entry)
    except GuardrailExceeded as exc:
        raise GuardrailExceeded(f"batch entry {i}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"batch entry {i}: {exc}") from exc


def cmd_compute(args: argparse.Namespace) -> int:
    caps = _resolve_caps(args)
    if args.batch is not None:
        tasks = list(enumerate(_batch_tasks(args, caps)))
        reports = _map_tasks(_batch_report, tasks, args.jobs)
    else:
        ops = _requested_ops(["all"] * args.all + ["csd_star"] * args.sections)
        reports = [_compute_report((args.group, ops, caps, args.timing))]
    sys.stdout.buffer.write(emit(reports, args.format, args.decimal))
    return 0


# ---------------------------------------------------------------------------
# verify


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise ValueError(f"range must look like 2..40, got {text!r}")
    a, b = int(lo), int(hi)
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return range(a, b + 1)


def _verify_rows(family: str, span: range, caps: Caps) -> list[tuple]:
    if family == "pgroup":  # |P(n,p,q)| >= 2*3^(n-1): stop at the first n where that passes the cap
        limit = _cap(caps.order)
        stop = next(n for n in itertools.count(2) if 2 * 3 ** (n - 1) > limit)
        span = range(span.start, min(span.stop, stop))
    rows = []
    for value in span:
        try:
            for params, formula, text in _verify_cases(family, value, caps):
                try:
                    group = _evaluate(text, caps)
                except GuardrailExceeded:
                    rows.append((params, formula, None, "skipped"))
                    continue
                brute = csd(group, max_order=group.order)
                holds = brute >= formula if family == "zq8bound" else brute == formula
                rows.append((params, formula, brute, "yes" if holds else "no"))
        except ValueError as exc:  # such as an expression past the int-to-str digit limit
            raise ValueError(f"verify {family} {value}: {exc}") from exc
    return rows


def _verify_cases(family: str, value: int, caps: Caps):
    """Yield (params label, formula value, group expression) for one sweep point."""
    if family == "dihedral":
        if value >= 2:
            yield f"m={value}", csd_dihedral(value), f"D({2 * value})"
    elif family == "quaternion":
        if value >= 3:
            yield f"n={value}", csd_quaternion(value), f"Q({2**value})"
    elif family == "semidihedral":
        if value >= 4:
            yield f"n={value}", csd_semidihedral(value), f"SD({2**value})"
    elif family == "pgroup":
        if value >= 2:
            limit = _cap(caps.order)
            for p in primes_in(3, limit):
                if p ** (value - 1) > limit:
                    continue
                for q in primes_in(2, p - 1):
                    if (p - 1) % q or p ** (value - 1) * q > limit:
                        continue
                    yield f"n={value},p={p},q={q}", csd_P_group(value, p), f"P({value},{p},{q})"
    elif family == "ep3":
        if value > 2 and is_prime(value):
            yield f"p={value}", csd_E_p3(value), f"E({value**3})"
    elif family == "zq8bound":
        if value >= 2:
            yield f"n={value}", csd_lower_bound_Zn_Q8(value), f"Z({2**value})xQ(8)"
    else:
        raise ValueError(f"unknown verify family {family!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    caps = _resolve_caps(args)
    span = _parse_range(args.range)
    rows = _verify_rows(args.family, span, caps)
    fields = ("params", "formula", "brute", "match")
    sys.stdout.buffer.write(emit_rows(fields, rows, args.format, args.decimal))
    failed = any(match == "no" for *_, match in rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# scan


def _scan_eq_task(text: str, caps: Caps) -> list[tuple]:
    group = _evaluate(text, caps)
    sd_v = sd(group, max_order=caps.lattice)  # first: its guard precedes its count of csd's pairs
    csd_v = csd(group, max_order=group.order)
    return [(text, csd_v, sd_v, "match")] if csd_v == sd_v != 1 else []


def _scan_monotonicity_task(text: str, caps: Caps) -> list[tuple]:
    group = _evaluate(text, caps)
    lat = subgroup_lattice(group, max_order=caps.lattice)
    values = [value for _, _, value in _section_degrees(lat, quotients=False)]
    out = []
    for j, outer in enumerate(lat.subgroups):
        for i, inner in enumerate(lat.subgroups[:j]):
            if inner.members & outer.members == inner.members and values[i] < values[j]:
                out.append((text, i, inner.size, j, outer.size, values[i], values[j], "pair"))
    return out


def _scan_star_task(text: str, caps: Caps) -> list[tuple]:
    group = _evaluate(text, caps)
    value = csd_star(group, max_order=caps.sections)
    if value > IWASAWA_THRESHOLD:
        label = "iwasawa-certified"
    elif value > NILPOTENT_THRESHOLD:
        label = "nilpotent-certified"
    else:
        label = "uncertified"
    return [(text, value, label, "yes" if value == IWASAWA_THRESHOLD else "no")]


# mode -> (worker giving rows as tuples in field order, output fields, the field
# that reads "skipped" when a guardrail trips)
_SCAN_TASKS = {
    "csd-eq-sd": (_scan_eq_task, ("group", "csd", "sd", "status"), "status"),
    "monotonicity": (
        _scan_monotonicity_task,
        ("group", "h_index", "h_order", "k_index", "k_order", "csd_h", "csd_k", "status"),
        "status",
    ),
    "csd-star": (
        _scan_star_task,
        ("group", "csd_star", "classification", "eq_41_49"),
        "classification",
    ),
}


def _scan_task(task: tuple[str, str, Caps]) -> list[tuple]:
    """Rows of one scan group: one skipped row over a guardrail, a bad group named in its error."""
    mode, text, caps = task
    worker, fields, skip = _SCAN_TASKS[mode]
    try:
        return worker(text, caps)
    except GuardrailExceeded:
        return [tuple(text if f == "group" else "skipped" if f == skip else None for f in fields)]
    except ValueError as exc:
        raise ValueError(f"scan group {text!r}: {exc}") from exc


def cmd_scan(args: argparse.Namespace) -> int:
    caps = _resolve_caps(args)
    fields = _SCAN_TASKS[args.mode][1]
    tasks = [(args.mode, text, caps) for text in args.groups]
    rows = itertools.chain.from_iterable(_map_tasks(_scan_task, tasks, args.jobs))
    sys.stdout.buffer.write(emit_rows(fields, rows, args.format, args.decimal))
    return 0


# ---------------------------------------------------------------------------
# lattice and sections


def cmd_lattice(args: argparse.Namespace) -> int:
    caps = _resolve_caps(args)
    group = _evaluate(args.group, caps)
    lat = subgroup_lattice(group, max_order=caps.lattice)
    sys.stdout.buffer.writelines(
        f"size={sub.size} members={','.join(map(str, sub.elems))}\n".encode()
        for sub in lat.subgroups
    )
    return 0


def cmd_sections(args: argparse.Namespace) -> int:
    caps = _resolve_caps(args)
    group = _evaluate(args.group, caps)
    lat = _sections_lattice(group, caps.sections)
    rows = ((h.size, n.size, h.size // n.size, value) for h, n, value in _section_degrees(lat))
    fields = ("h_order", "n_order", "order", "csd")
    sys.stdout.buffer.write(emit_rows(fields, rows, args.format, args.decimal))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text")
    common.add_argument("--decimal", action="store_true", help="render degrees as 6-significant-digit decimals")
    common.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for batch entries and scan groups")
    common.add_argument("--max-order", type=_positive_int, default=None, help=f"group order guardrail (default {DEFAULT_MAX_ORDER}; env CSDLAB_MAX_ORDER)")
    common.add_argument("--max-lattice-order", type=_positive_int, default=None, help=f"full-lattice guardrail (default {_cap(None, 'lattice')})")
    common.add_argument("--max-sections-order", type=_positive_int, default=None, help=f"sections guardrail (default {_cap(None, 'sections')})")

    parser = argparse.ArgumentParser(prog="csdlab", description="Cyclic subgroup commutativity degree laboratory")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_compute = verbs.add_parser("compute", parents=[common], help="compute degrees for a group expression")
    p_compute.add_argument("--group", help="group expression, e.g. 'D(8)' or 'Z(4)xQ(8)'")
    p_compute.add_argument("--batch", help="JSON file of {group, ops} entries, or - for stdin")
    mode = p_compute.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="compute every degree, including lattice-based ones")
    mode.add_argument("--csd-only", action="store_true", help="only the cyclic-lattice degrees (the default)")
    p_compute.add_argument("--sections", action="store_true", help="add csd* over all sections")
    p_compute.add_argument("--timing", action="store_true", help="include wall-clock milliseconds (non-deterministic)")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = verbs.add_parser("verify", parents=[common], help="check closed forms against enumeration")
    p_verify.add_argument("family", choices=VERIFY_FAMILIES)
    p_verify.add_argument("range", help="inclusive parameter range, e.g. 2..40")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = verbs.add_parser("scan", parents=[common], help="hunt thresholds and counterexamples over groups")
    p_scan.add_argument("mode", choices=SCAN_MODES)
    p_scan.add_argument("groups", nargs="+", help="group expressions")
    p_scan.set_defaults(func=cmd_scan)

    p_lattice = verbs.add_parser("lattice", parents=[common], help="dump the subgroup lattice")
    p_lattice.add_argument("--group", required=True)
    p_lattice.set_defaults(func=cmd_lattice)

    p_sections = verbs.add_parser("sections", parents=[common], help="list every section H/N with its degree")
    p_sections.add_argument("--group", required=True)
    p_sections.set_defaults(func=cmd_sections)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.verb == "compute" and (args.group is None) == (args.batch is None):
            raise ValueError("compute needs exactly one of --group or --batch")
        if args.verb == "compute" and args.batch is not None and (args.all or args.sections):
            raise ValueError('--batch takes no --all or --sections: each batch entry lists its own "ops"')
        return args.func(args)
    except GuardrailExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ParseError and ExprError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
