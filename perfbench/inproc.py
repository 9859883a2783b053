"""Run one conecert CLI invocation in process, in a fresh interpreter.

Usage: python perfbench/inproc.py [--trace --trace-id N --spans PATH] -- ARGV...

Imports ``conecert.cli`` (timed), optionally installs the span tracer, calls
``conecert.cli.main(ARGV)`` with stdout captured, and prints one JSON object:
the exit code, the import and main() wall times, the captured report and,
when traced, the per-layer self times and entries, the work counters and the
cost of one span wrapper.  Each
invocation gets its own interpreter so that in-process caches start cold,
as they do for a user's CLI run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402  (after the path set-up above)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-id", type=int, default=0)
    parser.add_argument("--spans", default=None, help="append span records (JSON lines) here")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    started = time.perf_counter()
    import conecert.cli

    import_s = time.perf_counter() - started
    tracer = spans.Tracer(trace_id=args.trace_id)
    if args.trace:
        spans.install(tracer)

    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        exit_code = conecert.cli.main(argv)
    main_s = time.perf_counter() - started

    result = {"exit": exit_code, "import_s": import_s, "main_s": main_s, "stdout": captured.getvalue()}
    if args.trace:
        seconds, entries = spans.layer_summary(tracer.spans)
        result.update(layers=seconds, entries=entries, counters=tracer.counters,
                      spans=len(tracer.spans), span_cost_s=spans.span_cost_s())
        if args.spans:
            with open(args.spans, "a") as out:
                for s in tracer.spans:
                    out.write(json.dumps([s.trace_id, s.name, s.start, s.end, s.parent]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
