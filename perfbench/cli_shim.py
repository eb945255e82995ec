"""Run `python -m holoreduce.cli ARGS` with tracing installed.

Usage: python perfbench/cli_shim.py SPANS_OUT ARGS...

The package is imported and wrapped first, then the CLI module runs as
`__main__` exactly as `-m` would run it; the spans are written to
SPANS_OUT when it exits.
"""

import json
import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import holoreduce  # noqa: E402,F401  (wrapped before the CLI imports its names)
from spans import Tracer  # noqa: E402


def main():
    out = sys.argv[1]
    sys.argv = ["holoreduce.cli"] + sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op("cli")
    code = 0
    try:
        runpy.run_module("holoreduce.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end_op()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
