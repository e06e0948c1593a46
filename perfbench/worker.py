"""Run one `laminar` command in this fresh process and record what it cost.

Usage: python3 worker.py SRC_DIR RESULT_JSON TRACE [laminar arguments...]

Imports laminar from SRC_DIR, notes the monotonic clock once it is
ready (the parent subtracts its own spawn time to get set-up time),
optionally installs the tracer, then times `laminar.cli.main(argv)`
with its standard output captured.  The result, including the
captured output, exit code, peak RSS, any spans and the library
versions it ran with, goes to RESULT_JSON.
"""

import contextlib
import importlib.util
import io
import json
import re
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's own peak resident set size.

    getrusage's ru_maxrss would do, except that on Linux it keeps the
    parent's size from before exec; VmHWM belongs to this image only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))


def main() -> int:
    src, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import laminar.cli

    ready = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = laminar.cli.main(argv)
    except Exception:  # a crash is a failed operation, reported to the parent
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0

    doc = {
        "ready": ready,
        "seconds": seconds,
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "maxrss_kb": peak_rss_kb(),
        "trace": tracer.report() if tracer else None,
        "env": {
            "numpy": sys.modules["numpy"].__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernel_backend": getattr(laminar._kernels, "backend", lambda: "n/a")(),
        },
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
