"""Run one ``cfindep`` operation in this fresh interpreter and report on it.

Usage: python3 op.py SPAWN_NS TRACE OP_JSON

SPAWN_NS is CLOCK_MONOTONIC in nanoseconds when the parent spawned this
process, TRACE is 0 or 1 and OP_JSON is one operation from workloads.py with
its final argv.  The operation is ``cfindep.cli.main(argv)``, which runs
``cli.run`` and ``dumps_report``.  The last line of stdout is a JSON object
with the set-up and operation times, exit code, report digest, peak RSS, the
known-answer verdict and, when traced, the per-layer summary.
"""

import sys
import time


def _clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


import cfindep.cli as cli  # noqa: E402  (the import is what setup_s times)

IMPORTED_NS = _clock()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from checks import check  # noqa: E402
from tracer import Tracer  # noqa: E402


def _requested_precision(argv: list[str]) -> int | None:
    """The precision the user asked for, explicitly or by catalog default."""
    if "--precision" in argv:
        return int(argv[argv.index("--precision") + 1])
    if argv[0] == "check-named-example":
        return int(cli.catalog()[argv[1]].defaults.get("precision", 128))
    return None


def main() -> int:
    spawn_ns, trace, op = int(sys.argv[1]), sys.argv[2] == "1", json.loads(sys.argv[3])
    tracer = None
    if trace:
        tracer = Tracer(_requested_precision(op["argv"]))
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = _clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op["argv"])
        except Exception:  # an escaped exception is a failed operation, not a crash
            code, error = None, traceback.format_exc(limit=3)
    end = _clock()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    payload = out.getvalue()
    summary = tracer.summary() if tracer else None  # before the check adds calls
    try:
        reason = check(op, payload) if payload else None
    except Exception as e:  # a report the check cannot read is a wrong answer
        reason = f"check raised {e!r}"
    result = {
        "setup_s": (IMPORTED_NS - spawn_ns) / 1e9,
        "op_s": (end - start) / 1e9,
        "exit": code,
        "error": error or err.getvalue().strip() or None,
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest() if payload else None,
        "rss_mb": rss_kb / 1024,
        "check": reason,
        "trace": summary,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
