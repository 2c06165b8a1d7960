"""Spans and counts at csdlab's module boundaries, recorded from outside.

The tracer wraps every public function of the traced modules and puts the
wrapper in place of the original at every module attribute that holds it,
so calls through ``from .lattice import subgroup_lattice`` are caught as
well as calls inside ``csdlab.lattice`` itself. Each wrapped call is a
span; a span's self time is its duration minus the durations of the spans
it directly contains. Spans are aggregated per name, and per
(parent, child) pair, in memory; nothing is written while the program runs.

Layers (see ``layer_metrics``) group span names into the per-layer metrics
the benchmark reports.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("groups", "expr", "lattice", "degrees", "formulas", "reports", "cli")

# Family constructors, permutation closure and direct products: the
# functions that build a Cayley table from scratch.
BUILD_FUNCTIONS = (
    "groups.cyclic",
    "groups.elementary_abelian",
    "groups.dihedral",
    "groups.generalized_quaternion",
    "groups.quasidihedral",
    "groups.modular_group_M",
    "groups.zm_group",
    "groups.p_group_P",
    "groups.heisenberg_E",
    "groups.from_generators",
    "groups.direct_product",
)
SECTION_FUNCTIONS = ("groups.subgroup_as_group", "groups.quotient")


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0

    def as_dict(self) -> dict[str, float]:
        return {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s}


class Tracer:
    """Aggregated spans and counters for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.lattice_groups: dict[int, object] = {}  # id -> group, kept alive

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, on_result=None):
        """A span around ``fn``; ``on_result(tracer, args, result)`` adds counts."""
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self._close(name, duration, frame[1])
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Count calls and yielded items; the generator's time is left to
        the spans it calls and to its consumer, since its body runs
        interleaved with the consumer's."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[name + ".yielded"] += 1
                yield item

        return traced

    def _close(self, name: str, duration: float, child_s: float) -> None:
        stat = self.stats[name]
        stat.calls += 1
        stat.self_s += duration - child_s
        stat.total_s += duration
        parent = self.parent()
        if parent is not None:
            self.stack[-1][1] += duration
        edge = self.edges[(parent or "", name)]
        edge.calls += 1
        edge.total_s += duration
        edge.self_s += duration - child_s

    def snapshot(self) -> dict:
        return {
            "spans": {name: s.as_dict() for name, s in sorted(self.stats.items())},
            "edges": [
                {"parent": p, "child": c, **s.as_dict()}
                for (p, c), s in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
            "distinct_lattice_groups": len(self.lattice_groups),
        }


# ---------------------------------------------------------------------------
# counters taken from arguments and results


def _count_lattice(tracer: Tracer, args, result) -> None:
    tracer.counts["lattice.subgroup_lattice.subgroups"] += len(result)
    group = args[0]
    tracer.lattice_groups.setdefault(id(group), group)


def _count_cyclic(tracer: Tracer, args, result) -> None:
    m = len(result)
    tracer.counts["lattice.cyclic_subgroups.subgroups"] += m
    if tracer.parent() == "degrees.csd":
        tracer.counts["degrees.csd.pair_tests"] += m * (m - 1) // 2


def _count_pairs(tracer: Tracer, args, result) -> None:
    m = len(args[0])  # every caller passes a lattice's tuple of subgroups
    tracer.counts["lattice.count_permuting_pairs.pair_tests"] += m * (m - 1) // 2


def _count_table(tracer: Tracer, args, result) -> None:
    tracer.counts["groups.build.table_entries"] += result.order * result.order


COUNTERS = {
    "lattice.subgroup_lattice": _count_lattice,
    "lattice.cyclic_subgroups": _count_cyclic,
    "lattice.count_permuting_pairs": _count_pairs,
    **{name: _count_table for name in BUILD_FUNCTIONS},
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced modules everywhere they are
    bound in the already imported ``csdlab`` package."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "csdlab" or name.startswith("csdlab."))
    ]
    replacements: dict[int, object] = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"csdlab.{short}"]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isgeneratorfunction(fn):
                replacements[id(fn)] = tracer.wrap_generator(name, fn)
                continue
            replacements[id(fn)] = tracer.wrap(name, fn, COUNTERS.get(name))
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# per-layer metrics


# Layers made of several spans: a tuple of span names, or a module prefix.
LAYER_SPANS = {
    "groups.build": BUILD_FUNCTIONS,
    "groups.section": SECTION_FUNCTIONS,
    "formulas": "formulas.",
    "reports.emit": "reports.",
}
SPAN_STATS = ("calls", "self_s", "total_s")


# name -> unit, in report order
LAYER_UNITS = {
    "lattice.subgroup_lattice.calls": "count",
    "lattice.subgroup_lattice.subgroups": "count",
    "lattice.subgroup_lattice.useful_ratio": "1",
    "lattice.subgroup_lattice.self_s": "s",
    "lattice.count_permuting_pairs.calls": "count",
    "lattice.count_permuting_pairs.self_s": "s",
    "lattice.count_permuting_pairs.pair_tests": "count",
    "lattice.cyclic_subgroups.calls": "count",
    "lattice.cyclic_subgroups.self_s": "s",
    "lattice.cyclic_subgroups.subgroups": "count",
    "lattice.normal_subgroups.calls": "count",
    "lattice.normal_subgroups.self_s": "s",
    "lattice.is_normal.calls": "count",
    "lattice.is_normal.self_s": "s",
    "lattice.sections.yielded": "count",
    "groups.build.calls": "count",
    "groups.build.self_s": "s",
    "groups.build.table_entries": "count",
    "groups.section.calls": "count",
    "groups.section.self_s": "s",
    "degrees.csd.calls": "count",
    "degrees.csd.self_s": "s",
    "degrees.csd.pair_tests": "count",
    "degrees.d.self_s": "s",
    "degrees.sd.calls": "count",
    "degrees.csd_star.self_s": "s",
    "expr.evaluate.self_s": "s",
    "formulas.self_s": "s",
    "reports.emit.self_s": "s",
    "cli.main.total_s": "s",
    "trace.overhead_ratio": "1",
}


def layer_metrics(snapshot: dict, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from a merged snapshot (see ``merge``).

    ``<layer>.<stat>`` sums a span statistic over the layer's spans; any
    other name is a count taken at a boundary.
    """
    spans = snapshot["spans"]
    out: dict[str, float] = {}
    for name in LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if stat in SPAN_STATS:
            members = LAYER_SPANS.get(layer, (layer,))
            if isinstance(members, str):
                members = [n for n in spans if n.startswith(members)]
            out[name] = sum(spans[n][stat] for n in members if n in spans)
        else:
            out[name] = snapshot["counts"].get(name, 0)
    calls = out["lattice.subgroup_lattice.calls"]
    out["lattice.subgroup_lattice.useful_ratio"] = (
        snapshot["distinct_lattice_groups"] / calls if calls else 0.0
    )
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def merge(snapshots: list[dict]) -> dict:
    """Sum per-request snapshots into one (distinct groups are per process,
    so they add up across requests)."""
    spans: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    counts: dict[str, int] = defaultdict(int)
    distinct = 0
    for snap in snapshots:
        for name, stat in snap["spans"].items():
            for field, value in stat.items():
                spans[name][field] += value
        for name, value in snap["counts"].items():
            counts[name] += value
        distinct += snap["distinct_lattice_groups"]
    return {"spans": dict(spans), "counts": dict(counts), "distinct_lattice_groups": distinct}
