"""``python -m bhfi.cli`` under the layer tracer, for traced cli-cold jobs.

Records the time from process start (``PERFBENCH_T0``, set by the parent
just before the spawn) until ``bhfi.cli`` is imported, runs the command,
and appends the spans to a file in ``PERFBENCH_SPAN_DIR``.
"""
import os
import sys
import time

T0 = float(os.environ["PERFBENCH_T0"])

import bhfi.cli      # noqa: E402  (the import is the measured span)

IMPORTED = time.monotonic()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer        # noqa: E402


def main():
    tr = tracer.Tracer()
    tr.span(tracer.IMPORT_SPAN, T0, IMPORTED)
    tr.install()
    try:
        return bhfi.cli.main(sys.argv[1:])
    finally:
        tr.write(os.path.join(os.environ["PERFBENCH_SPAN_DIR"],
                              f"{os.getpid()}.jsonl"))


if __name__ == "__main__":
    sys.exit(main())
