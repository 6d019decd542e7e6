"""One fibstat CLI invocation, timed from inside the child process.

    python child.py TIMING_JSON TRACE_JSON|- [fibstat arguments...]

With no fibstat arguments the child only imports `fibstat.cli` (a set-up
probe).  It writes to TIMING_JSON the monotonic clock just after the import
and just after `main(argv)` returns, the exit code, and its own peak RSS read
with RUSAGE_SELF (RUSAGE_CHILDREN in the parent would be the maximum over
every child waited for so far).  Linux's CLOCK_MONOTONIC is shared between
processes, so the parent subtracts its own spawn time to get the set-up
time.  With TRACE_JSON other than "-" the run is traced by layertrace and the
spans are written there after `main` returns.
"""

import json
import resource
import sys
import time


def main() -> int:
    timing_path, trace_path, *argv = sys.argv[1:]
    import fibstat.cli

    imported = time.monotonic()
    tracer = None
    if trace_path != "-":
        import layertrace

        tracer = layertrace.install(run_id=timing_path)
    started = time.monotonic()
    code = fibstat.cli.main(argv) if argv else 0
    ended = time.monotonic()
    if tracer is not None:
        tracer.dump(trace_path)
    timing = {
        "imported": imported,
        "started": started,
        "ended": ended,
        "exit_code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
