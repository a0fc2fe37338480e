"""One twomatrix command-line job under the span tracer.

    python3 perfbench/cli_traced.py SPANS_PATH -- <twomatrix cli arguments>

The traced cli workload starts its jobs through this file instead of
``python -m twomatrix``, so that the layers a job runs show in the
per-layer figures.  The spans go to SPANS_PATH as JSON lines; the exit
status is the job's.
"""
import sys

import twomatrix.cli

from tracer import Tracer


def main():
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_PATH -- <cli arguments>")
    tracer = Tracer()
    tracer.install()
    tracer.phase = "loop"
    try:
        return twomatrix.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
