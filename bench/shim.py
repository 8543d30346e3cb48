"""Traced ``speedtrim`` command: wrap the public functions, run cli.main.

Usage: python3 bench/shim.py SPANS_OUT -- <speedtrim arguments>

The spans of the command are written to SPANS_OUT as JSON when it ends,
together with ``startup_s``: the time from ``BENCH_SPAWN_T`` (wall clock
taken by the parent just before it started this process) to the call of
``cli.main``, less the time spent installing the wrappers.
"""

import json
import os
import sys
import time

import spans


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_OUT -- ARGS...")
    from speedtrim import cli

    t0 = time.perf_counter()
    recorder = spans.Recorder()
    spans.install(recorder)
    install_s = time.perf_counter() - t0
    startup_s = time.time() - float(os.environ["BENCH_SPAWN_T"]) - install_s
    try:
        code = cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"startup_s": startup_s, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
