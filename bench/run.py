"""csdlab benchmark: run one workload's CLI requests and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload all-degrees --seed 0 --seconds 45 --trace 0

Each request is ``csdlab.cli.main(argv)`` in a fresh interpreter that
imports ``csdlab`` from the checkout's ``src/``, run one after another by
a single client (a closed loop). Every request's exit code and stdout are
checked against ``bench/expected/``.

--trace 0 repeats the request list while another pass still fits in
--seconds (at least once) and reports the end-to-end metrics: medians over
passes, setup as the median over requests, peak RSS as the maximum.
--trace 1 runs the list once untraced and once traced, checks that both
give the same stdout, reports the per-layer metrics, and writes the
per-request spans to ``bench/out/trace-<workload>-seed<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when the
run completed, even if some outputs were wrong; it is 2 when the run
could not be made (no ``src/csdlab`` in the checkout, unknown workload).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import corpus
import harness
import tracer

RUN_LIMIT_S = 170.0  # every request is killed by then, so the run ends in time

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_request_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measured_run(requests, seconds: float, deadline: float):
    """Untraced passes while the next one is expected to end within
    ``seconds`` of the start and before the deadline; always at least one."""
    start = harness.clock()
    passes = []
    while True:
        passes.append(harness.run_pass(requests, False, deadline))
        next_end = harness.clock() + passes[-1].wall_s
        if next_end - start > seconds or next_end > deadline:
            break
    metrics = harness.end_to_end(passes)
    return passes, {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_run(requests, workload: str, seed: int, deadline: float):
    plain = harness.run_pass(requests, False, deadline)
    traced = harness.run_pass(requests, True, deadline)
    for before, after in zip(plain.results, traced.results):
        if after.stdout != before.stdout:
            after.reasons.append("traced stdout differs from untraced stdout")
    snapshots = [r.meta["trace"] for r in traced.results if r.meta is not None]
    overhead = traced.wall_s / plain.wall_s - 1.0
    values = tracer.layer_metrics(tracer.merge(snapshots), overhead)
    write_trace(workload, seed, plain, traced, overhead)
    return [plain, traced], {
        name: (values[name], unit) for name, unit in tracer.LAYER_UNITS.items()
    }


def write_trace(workload: str, seed: int, plain, traced, overhead: float) -> None:
    harness.OUT.mkdir(exist_ok=True)
    path = harness.OUT / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        **environment(traced),
        "overhead_ratio": overhead,
        "requests": [
            {
                "argv": list(t.request.argv),
                "untraced_s": p.latency_s,
                "traced_s": t.latency_s,
                **(t.meta["trace"] if t.meta is not None else {}),
            }
            for p, t in zip(plain.results, traced.results)
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"trace written to {path.relative_to(harness.ROOT)}")


def environment(one_pass) -> dict:
    files = {r.meta["csdlab_file"] for r in one_pass.results if r.meta is not None}
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "csdlab": sorted(files),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "csdlab" / "cli.py").is_file():
        print(f"error: no csdlab sources under {harness.SRC}", file=sys.stderr)
        return 2
    try:
        requests = corpus.requests(args.workload, args.seed)
    except corpus.MissingExpected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deadline = harness.clock() + RUN_LIMIT_S
    if args.trace:
        passes, metrics = traced_run(requests, args.workload, args.seed, deadline)
    else:
        passes, metrics = measured_run(requests, args.seconds, deadline)

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.request.key}: {'; '.join(r.reasons)}", file=sys.stderr)
    env = environment(passes[0])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)} requests {len(requests)}")
    print(f"python {env['python']} nproc {env['nproc']} csdlab {' '.join(env['csdlab'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {len(failed) / len(results):.6g} 1")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
