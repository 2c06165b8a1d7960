"""Record the expected exit code and stdout of every request in every pool.

Usage (from the root of a checkout whose outputs are trusted):

    python3 bench/make_expected.py            # record requests not yet recorded
    python3 bench/make_expected.py --all      # record every request again

Each output is checked with ``crosscheck.check`` before it is written, and
the sources used are stored with it in ``expected/manifest.json``. A
request whose output disagrees with an independent source is not recorded
and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import corpus
import crosscheck
import harness


def record(argv: tuple[str, ...], workdir: Path) -> dict:
    probe = harness.Request(argv, 0, b"")
    result = harness.run_request(probe, False, workdir, timeout=600.0)
    if result.stderr:
        raise crosscheck.Mismatch(f"stderr: {result.stderr.decode()[-300:]}")
    sources = crosscheck.check(list(argv), result.exit_code, result.stdout)
    name = corpus.slug(argv)
    (corpus.EXPECTED / name).write_bytes(result.stdout)
    return {"exit": result.exit_code, "stdout": name, "check": sources}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--all", action="store_true", help="record every request again")
    args = parser.parse_args(argv)
    argvs = corpus.all_argvs()
    names = [corpus.slug(a) for a in argvs]
    if len(set(names)) != len(names):
        raise SystemExit("two requests map to one expected file name")
    corpus.EXPECTED.mkdir(exist_ok=True)
    harness.OUT.mkdir(exist_ok=True)
    manifest = corpus.load_manifest()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="expected-", dir=harness.OUT) as tmp:
        for request in argvs:
            key = " ".join(request)
            if key in manifest and not args.all:
                continue
            try:
                manifest[key] = record(request, Path(tmp))
            except crosscheck.Mismatch as exc:
                failures += 1
                print(f"NOT RECORDED {key}: {exc}", file=sys.stderr)
                continue
            print(f"recorded {key}: {'; '.join(manifest[key]['check'])}", flush=True)
            corpus.MANIFEST.write_text(
                json.dumps(dict(sorted(manifest.items())), indent=1) + "\n", encoding="utf-8"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
