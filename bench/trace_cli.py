"""Run one khab command line with tracing on and dump the trace.

    python3 bench/trace_cli.py TRACE_FILE -- <khab arguments>

Exits with the command's exit code.  The traced session of ``run.py``
starts this in place of ``python -m khab.cli`` and merges the dump.
"""

import sys

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    import khab
    import khab.cli

    tracer = Tracer()
    tracer.install(khab)
    try:
        return khab.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
