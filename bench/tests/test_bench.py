"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 -m pytest bench/tests -q

The last two tests run whole traced workloads; the file takes about 70 s.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    """Each call returns the next tick."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_a_synthetic_nested_call():
    # outer: 0 .. 10, inner #1: 2 .. 5, inner #2: 6 .. 7
    t = tracer.Tracer(clock=FakeClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    inner = t.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    t.wrap("m.outer", body)()
    spans = t.snapshot()["spans"]
    assert spans["m.outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0}
    assert spans["m.inner"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    edges = {(e["parent"], e["child"]): e["calls"] for e in t.snapshot()["edges"]}
    assert edges == {("m.outer", "m.inner"): 2, ("", "m.outer"): 1}


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))

    def fail():
        raise ValueError("boom")

    inner = t.wrap("m.fail", fail)

    def outer():
        with pytest.raises(ValueError):
            inner()

    t.wrap("m.outer", outer)()
    spans = t.snapshot()["spans"]
    assert spans["m.fail"]["self_s"] == 2.0
    assert spans["m.outer"]["self_s"] == 2.0
    assert t.stack == []


def test_generator_counts_yields_and_leaves_time_to_its_children():
    t = tracer.Tracer(clock=FakeClock([0.0, 1.0]))
    child = t.wrap("m.child", lambda x: x)
    gen = t.wrap_generator("m.gen", lambda n: (child(i) for i in range(n)))
    assert list(gen(1)) == [0]
    snap = t.snapshot()
    assert snap["counts"] == {"m.gen.calls": 1, "m.gen.yielded": 1}
    assert set(snap["spans"]) == {"m.child"}


def test_layer_metrics_lists_every_layer_with_a_unit():
    empty = {"spans": {}, "counts": {}, "distinct_lattice_groups": 0}
    metrics = tracer.layer_metrics(empty, 0.5)
    assert list(metrics) == list(tracer.LAYER_UNITS)
    assert metrics["lattice.subgroup_lattice.useful_ratio"] == 0.0
    assert metrics["trace.overhead_ratio"] == 0.5


def test_draw_is_fixed_by_seed_and_seed_zero_is_the_corpus():
    for workload, slots in corpus.WORKLOADS.items():
        assert corpus.draw(workload, 0) == [pool[0] + corpus.PINNED for pool in slots]
        assert corpus.draw(workload, 7) == corpus.draw(workload, 7)
        for seed in range(1, 20):
            for pool, argv in zip(slots, corpus.draw(workload, seed)):
                if len(pool) > 1:
                    assert argv[:-2] in pool[1:]
                assert argv[-2:] == ("--jobs", "1")


def test_every_pool_request_has_a_checked_expected_output():
    manifest = corpus.load_manifest()
    for argv in corpus.all_argvs():
        entry = manifest[" ".join(argv)]
        assert (corpus.EXPECTED / entry["stdout"]).is_file()
        assert entry["exit"] in (0, 1)
        assert entry["check"], "expected output recorded without a cross-check"
    for workload in corpus.WORKLOADS:
        for seed in range(10):
            assert corpus.requests(workload, seed, manifest)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_UNITS
    assert spec["run_seconds"] == run.parse_args(["--workload", "csd-sweep"]).seconds


def test_child_environment_drops_guardrail_overrides(monkeypatch):
    monkeypatch.setenv("CSDLAB_MAX_ORDER", "4")
    monkeypatch.setenv("PYTHONPATH", "/nowhere")
    env = harness.child_env()
    assert "CSDLAB_MAX_ORDER" not in env and "PYTHONPATH" not in env


def run_main(argv, monkeypatch, requests=None):
    if requests is not None:
        monkeypatch.setattr(corpus, "requests", lambda workload, seed: requests)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(argv)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_tampered_expected_output_raises_failed_ratio(monkeypatch):
    argv = ("compute", "--group", "D(8)", "--jobs", "1")
    good = b"group  order  l1  lattice  csd    sd  ndeg  cdeg  d    csd_star  is_iwasawa  wall_ms\n"
    good += b"D(8)   8      7   -        41/49  -   -     -     5/8  -         -           -\n"
    requests = [
        harness.Request(argv, 0, good),
        harness.Request(argv, 0, good.replace(b"41/49", b"40/49")),
        harness.Request(argv, 1, good),
    ]
    code, lines, result = run_main(
        ["--workload", "one-lattice", "--seconds", "0", "--trace", "0"], monkeypatch, requests)
    assert code == 0
    assert result["attempted"] == 3 and result["failed"] == 2
    assert result["correct"] is False
    assert "failed_ratio 0.666667 1" in lines
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_setup_and_import_path_are_recorded():
    argv = ("compute", "--group", "Z(6)", "--jobs", "1")
    p = harness.run_pass([harness.Request(argv, 0, b"")], False, harness.clock() + 60)
    (r,) = p.results
    assert r.exit_code == 0
    assert 0 < r.setup_s < r.latency_s
    assert Path(r.meta["csdlab_file"]).is_relative_to(harness.SRC / "csdlab")


def traced(workload, monkeypatch):
    code, lines, result = run_main(
        ["--workload", workload, "--seed", "0", "--trace", "1"], monkeypatch)
    assert code == 0 and result["correct"], lines
    trace = json.loads((harness.OUT / f"trace-{workload}-seed0.json").read_text())
    return {k: v["value"] for k, v in result["metrics"].items()}, trace


def test_all_degrees_counts_repeat_exactly(monkeypatch):
    metrics, trace = traced("all-degrees", monkeypatch)
    per_request = [
        r["spans"]["lattice.subgroup_lattice"]["calls"] for r in trace["requests"]
    ]
    assert per_request == [140, 162, 380]
    assert metrics["lattice.subgroup_lattice.calls"] == 682
    assert metrics["lattice.subgroup_lattice.self_s"] >= 0.8 * metrics["cli.main.total_s"]


def test_csd_sweep_builds_no_lattice(monkeypatch):
    metrics, _ = traced("csd-sweep", monkeypatch)
    assert metrics["lattice.subgroup_lattice.calls"] == 0
    self_times = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "groups.build.self_s"
