"""One cold ``tfp`` process, as the console script runs it, plus its own clocks.

Usage: python3 child.py <plain|traced> <record.json> <tfp arguments...>

PERFBENCH_SPAWN holds the parent's time.monotonic() just before the spawn
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers interpreter
start and the import of tfpainleve.cli.  The traced mode installs the layer
wrappers after that import and writes every span to the record.
"""

import json
import os
import sys
import time


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    mode, record_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from tfpainleve.cli import main as tfp_main

    setup = time.monotonic() - spawn
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        t0 = time.monotonic()
        rc = tracer.call("cli.main", tfp_main, (argv,), {})
    else:
        t0 = time.monotonic()
        rc = tfp_main(argv)
    main_s = time.monotonic() - t0

    from tfpainleve import _io

    worker_count = getattr(_io, "worker_count", None)
    record = {
        "setup_s": setup,
        "main_s": main_s,
        "pool_size": worker_count() if worker_count is not None else 1,
        "spans": tracer.dump() if tracer is not None else None,
    }
    with open(record_path, "w") as f:
        json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
