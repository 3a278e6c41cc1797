"""Run one maxbw CLI command in this fresh interpreter with spans recorded.

Usage: cli_child.py SUMMARY_JSON SPANS_TSV <maxbw arguments...>

Times `import numpy` and then `import maxbw.cli` before anything else is
imported, installs the span wrappers, runs `maxbw.cli.main`, and writes the
per-name span summary and the raw spans. Stdout is the command's own.
"""

import sys
import time

start = time.perf_counter()
import numpy  # noqa: E402,F401

numpy_done = time.perf_counter()
import maxbw.cli  # noqa: E402

maxbw_done = time.perf_counter()

import json  # noqa: E402

import spans  # noqa: E402


def main(argv):
    summary_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc = maxbw.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    tracer.write(spans_path)
    with open(summary_path, "w") as fh:
        json.dump({"numpy_ms": 1e3 * (numpy_done - start),
                   "maxbw_ms": 1e3 * (maxbw_done - numpy_done),
                   "summary": [[*key, *row] for key, row in tracer.summary().items()]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
