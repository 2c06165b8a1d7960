"""Run CLI requests in hermetic child processes and measure them.

Each request is one ``python3 -I child.py ...`` process. Its stdout and
stderr go to files, and the harness reaps it with ``os.wait4`` to get its
own CPU time and peak RSS. Spawn and exit are stamped on the system-wide
monotonic clock, which the child also uses to stamp the import of
``csdlab.cli``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    """The parent's environment without csdlab settings or Python overrides:
    a stray CSDLAB_MAX_ORDER would silently change the guardrails."""
    return {
        k: v for k, v in os.environ.items()
        if not k.startswith(("CSDLAB_", "PYTHON"))
    }


@dataclass
class Request:
    argv: tuple[str, ...]
    exit_code: int
    stdout: bytes

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Result:
    request: Request
    exit_code: int
    stdout: bytes
    stderr: bytes
    started: float
    ended: float
    cpu_s: float
    maxrss_kib: int
    meta: dict | None
    reasons: list[str] = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        return self.ended - self.started

    @property
    def setup_s(self) -> float | None:
        if self.meta is None:
            return None
        return self.meta["imported_at"] - self.started

    @property
    def ok(self) -> bool:
        return not self.reasons


def run_request(request: Request, trace: bool, workdir: Path, timeout: float) -> Result:
    meta_path = workdir / "meta.json"
    out_path = workdir / "stdout"
    err_path = workdir / "stderr"
    meta_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-I", str(CHILD), str(SRC), str(meta_path),
        "1" if trace else "0", json.dumps(list(request.argv)),
    ]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = clock()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=child_env(), cwd=ROOT,
        )
        watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        ended = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    meta = None
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    result = Result(
        request=request,
        exit_code=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        started=started,
        ended=ended,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
        meta=meta,
    )
    check(result)
    return result


def check(result: Result) -> None:
    """Record why a result differs from its request's expected output."""
    expected = result.request
    if result.exit_code != expected.exit_code:
        result.reasons.append(f"exit code {result.exit_code}, expected {expected.exit_code}")
    if result.stdout != expected.stdout:
        result.reasons.append("stdout differs from the expected output")
    if result.meta is None:
        result.reasons.append("child wrote no side file")
    elif not Path(result.meta["csdlab_file"]).is_relative_to(SRC / "csdlab"):
        result.reasons.append(f"csdlab imported from {result.meta['csdlab_file']}")


@dataclass
class Pass:
    """One run of a workload's request list, one request after another."""

    results: list[Result]

    @property
    def wall_s(self) -> float:
        return self.results[-1].ended - self.results[0].started

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.results)

    @property
    def max_request_s(self) -> float:
        return max(r.latency_s for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kib for r in self.results) / 1024.0


def run_pass(requests: list[Request], trace: bool, deadline: float) -> Pass:
    OUT.mkdir(exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(prefix="req-", dir=OUT) as tmp:
        for request in requests:
            results.append(run_request(request, trace, Path(tmp), deadline - clock()))
    return Pass(results)


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    """Medians over passes; setup is the median over every request."""
    setups = [r.setup_s for p in passes for r in p.results if r.setup_s is not None]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "max_request_s": statistics.median(p.max_request_s for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setups) if setups else float("nan"),
    }
