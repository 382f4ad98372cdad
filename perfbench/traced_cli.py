"""`conj` with the benchmark's spans installed.

    python3 perfbench/traced_cli.py SPAN_FILE ARGS...

runs `conjalg.cli.main(ARGS)` like `python -m conjalg.cli ARGS` and writes
the spans of the call to SPAN_FILE as a JSON list.
"""

import json
import sys

from common import pin_environment


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    pin_environment()
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from conjalg import cli

    try:
        return cli.main(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
