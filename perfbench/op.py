"""One benchmark operation: a fresh interpreter running one ``hardykpz`` command.

Usage: python3 op.py SPAWN_TIME RESULT_JSON WORKER_DIR|- CLI_ARG...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the two readings
compare).  Set-up ends once ``hardykpz.cli`` is imported.  With a WORKER_DIR
the package is traced (see tracing.py) and the per-layer totals go into the
result; ``-`` runs it untraced.  The process exits with the command's code.
"""

import json
import resource
import sys
import time


def main() -> int:
    spawn = float(sys.argv[1])
    import hardykpz.cli as cli
    ready = time.monotonic()
    result_path, worker_dir, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
    tracer = None
    if worker_dir != "-":
        import tracing
        tracer = tracing.install(worker_dir)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    op_s = time.perf_counter() - t0
    result = {
        "setup_s": ready - spawn,
        "op_s": op_s,
        "rc": rc,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program": cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.collect()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
