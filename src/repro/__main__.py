"""Unified command-line front door: ``python -m repro``.

One dispatcher over the per-subsystem entry points, which all keep
working on their own::

    python -m repro experiments monitor --seed 0 --store perf.db
    python -m repro validate fuzz --smoke
    python -m repro analysis query regression --store perf.db \\
        --base run-a --head run-b
    python -m repro store info --store perf.db

The subcommands share flag conventions: ``--seed`` selects the
deterministic seed, ``--out`` the artifact directory, ``--jobs`` the
process fan-out, and ``--store`` the persistent performance store that
ties them together (experiments write it, analysis queries it).
Everything after the subcommand is passed through verbatim, so each
subsystem's ``--help`` remains authoritative.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module

#: subcommand -> module whose ``main(argv)`` receives the rest.
_COMMANDS = {
    "experiments": "repro.experiments.__main__",
    "validate": "repro.validate.__main__",
    "analysis": "repro.analysis.__main__",
    "store": "repro.store.__main__",
}

_USAGE = """\
usage: python -m repro <command> [args...]

commands:
  experiments  regenerate the paper's tables and figures
  validate     fuzz sweeps and golden-trace checks
  analysis     query a persistent performance store
  store        inspect a performance store

`python -m repro <command> --help` shows each command's flags; the
shared ones are --seed, --out, --jobs, and --store.
"""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command not in _COMMANDS:
        print(_USAGE, end="", file=sys.stderr)
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    module = import_module(_COMMANDS[command])
    try:
        return module.main(rest)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; suppress the shutdown
        # complaint about the unflushable stdout and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
