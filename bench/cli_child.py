"""The ``fanocalc`` console entry with the benchmark's wrappers installed.

Used by the traced ``cli`` workload in place of the console script.  Runs
``fanocalc.cli.main`` on its arguments, then writes the span totals as one
JSON line to standard error.
"""

import json
import sys

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    from fanocalc import cli

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.snapshot()), file=sys.stderr)
    sys.exit(code)
