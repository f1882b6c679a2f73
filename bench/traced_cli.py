"""Run the bergercmc CLI in this process with the tracer installed.

    python -X importtime bench/traced_cli.py TRACE_JSON CLI_ARGS...

Times the import of bergercmc.cli, runs `bergercmc.cli.main(CLI_ARGS)`
with the tracer's wrappers in place, writes the spans, counts and timings
to TRACE_JSON and exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402  (stdlib only, so it does not shift the timed import)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import bergercmc.cli
    t1 = time.perf_counter()
    tr = tracer.Tracer()
    tracer.install(tr)
    code = bergercmc.cli.main(argv)
    t2 = time.perf_counter()
    with open(trace_path, "w") as fh:
        json.dump({"import_s": t1 - t0, "after_import_s": t2 - t1, "spans": tr.spans,
                   "counts": dict(tr.counts), "samples": dict(tr.samples)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
