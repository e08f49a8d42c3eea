"""The process that runs twinreg for the benchmark.

Two modes, both started with ``PYTHONPATH`` pointing at the checkout's src:

``worker.py serve``
    Imports ``twinreg.cli``, reports how long that took, then serves ops read
    as JSON lines on stdin, one at a time: each op is a list of argvs run
    through ``twinreg.cli.main`` with stdout and stderr captured.  Replies are
    JSON lines on the original stdout.  ``{"trace": true}`` installs the span
    wrappers (and tracemalloc if asked); ``{"exit": true}`` returns the spans
    and the process's max RSS, then exits.

``worker.py child SPANS_FILE ARGV...``
    One traced cold run: times the import, runs ``twinreg.cli.main(ARGV)`` with
    the real stdout, writes the spans to SPANS_FILE and exits with main's code.
"""

import sys
import time

_t0 = time.perf_counter()
import twinreg.cli  # noqa: E402  (timed: this is the import a cold run pays)

IMPORT_MS = (time.perf_counter() - _t0) * 1e3
MODULES_LOADED = len(sys.modules)

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


def run_captured(argv: list[str]) -> dict:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        rc = twinreg.cli.main(argv)
    except Exception:  # a crash is a failed op, not a dead worker
        rc = -1
        traceback.print_exc(file=err)
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    # latin-1 maps every byte to one code point, so JSON carries the bytes exactly
    return {"rc": rc, "out": out.buffer.getvalue().decode("latin-1"), "err": err.getvalue()}


def serve() -> None:
    chan = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # stray prints must not corrupt replies

    def reply(doc: dict) -> None:
        chan.write(json.dumps(doc) + "\n")
        chan.flush()

    tracer = None
    reply({"import_ms": IMPORT_MS, "modules": MODULES_LOADED, "twinreg": twinreg.cli.__file__})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("exit"):
            reply({
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": tracer.spans if tracer else [],
                "absent": tracer.absent if tracer else [],
            })
            return
        if req.get("trace"):
            tracer = Tracer()
            tracer.install()
            if req.get("alloc"):
                tracemalloc.start()
            reply({"ok": True})
            continue
        results = []
        t0 = time.perf_counter()
        for argv in req["argvs"]:
            if tracer:
                tracer.op = req["op"]
                results.append(tracer.call("cli.main", run_captured, (argv,)))
            else:
                results.append(run_captured(argv))
        reply({"ms": (time.perf_counter() - t0) * 1e3, "results": results})


def child(spans_file: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    tracemalloc.start()
    rc = tracer.call("cli.main", twinreg.cli.main, (argv,))
    tracemalloc.stop()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({
            "import_ms": IMPORT_MS,
            "modules": MODULES_LOADED,
            "spans": tracer.spans,
            "absent": tracer.absent,
        }, fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve()
    else:
        sys.exit(child(sys.argv[2], sys.argv[3:]))
