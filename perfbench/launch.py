"""Run a ``lash`` CLI command with the serving layers traced.

``python3 perfbench/launch.py TRACE_OUT lash-args...`` installs the
serving wrappers of :mod:`tracing`, runs ``repro.cli.main`` with the
remaining arguments in this process, and writes the spans to
``TRACE_OUT`` when the command exits (SIGINT or SIGTERM stops it the
way Ctrl-C stops ``lash serve``).  Only the traced run uses this; the
untraced runs start ``python3 -m repro.cli`` directly.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer, install
    from repro import cli

    trace_out, cli_args = argv[0], argv[1:]
    tracer = install(Tracer(), "serve")
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
