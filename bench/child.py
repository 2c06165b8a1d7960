"""One benchmark request: ``csdlab.cli.main(argv)`` in a fresh interpreter.

Usage: python3 -I child.py SRC_DIR META_PATH TRACE ARGV_JSON

Imports ``csdlab`` from SRC_DIR, stamps the moment ``csdlab.cli`` is
imported on the system-wide monotonic clock, optionally installs the
tracer, runs the CLI with its stdout untouched, and writes a JSON side
file to META_PATH. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    src, meta_path, trace, argv_json = sys.argv[1:5]
    sys.path.insert(0, src)
    import csdlab.cli

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = csdlab.cli.main(json.loads(argv_json))
    sys.stdout.flush()
    meta = {
        "imported_at": imported_at,
        "csdlab_file": os.path.abspath(csdlab.__file__),
        "python": sys.version.split()[0],
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
