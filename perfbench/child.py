"""Run one ecgdx CLI command in this fresh process and report how it went.

Usage::

    python3 perfbench/child.py RESULT_JSON TRACE RUN_ID -- CLI_ARG...

Writes to RESULT_JSON the command's exit code, the seconds spent in
``ecgdx.cli.dispatch``, this process's peak RSS and, when TRACE is 1, the
spans recorded by :mod:`tracing`.  The parent sets OPENBLAS_NUM_THREADS
before this process starts, so numpy sees it at import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, trace, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE RUN_ID -- CLI_ARG...")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ecgdx.cli import dispatch

    tracer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    error = None
    start = time.perf_counter()
    try:
        rc = dispatch(cli_args)
    except Exception as exc:  # a traceback is a failed operation, reported as such
        traceback.print_exc()
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    dispatch_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "error": error,
        "dispatch_s": dispatch_s,
        "maxrss_kib": usage.ru_maxrss,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
