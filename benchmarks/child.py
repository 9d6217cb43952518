"""One berezin-lab CLI invocation, as a user runs it, with phase time stamps.

Usage: python3 child.py SRC_DIR STAMPS_PATH TRACE -- CLI_ARGS...

Imports numpy and berezin_lab from SRC_DIR, then calls `cli.main(CLI_ARGS)`
(not `python -m berezin_lab.cli`, which prints a runpy warning). Writes the
`time.monotonic()` stamps at which the imports and `cli.main` ended and
started as JSON to STAMPS_PATH; with TRACE=1 the per-layer table and the
tracing overhead too. Exits
with the CLI's exit code. The monotonic clock is shared by all processes on
the machine, so the parent can subtract its own launch stamp.
"""

import os
import sys
import time


def main() -> int:
    src, stamps_path, trace = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py SRC_DIR STAMPS_PATH TRACE -- CLI_ARGS...")
    cli_args = sys.argv[5:]
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of the set-up every user pays)
    from berezin_lab import cli

    imported = time.monotonic()
    if not cli.__file__.startswith(os.path.join(src, "")):
        print(f"berezin_lab imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 4
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    else:
        run = cli.main
    start = time.monotonic()
    try:
        rc = run(cli_args)
    finally:
        end = time.monotonic()
        if tracer is not None:
            tracer.restore()
    import json

    stamps = {"imported": imported, "main_start": start, "main_end": end}
    if tracer is not None:
        stamps["layers"] = tracer.stats
        stamps["counts"] = tracer.counts
        stamps["overhead_s"] = tracer.overhead_s()
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
