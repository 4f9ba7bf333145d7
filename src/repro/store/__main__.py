"""Command-line store inspection: ``python -m repro.store <command>``.

Commands
--------

``info``
    Print a deterministic summary of a store: schema version, runs,
    series/finding/profile counts.
"""

from __future__ import annotations

import argparse
import sys

from . import PerfStore


def _cmd_info(args: argparse.Namespace) -> int:
    with PerfStore(args.store) as store:
        from .schema import schema_version

        conn = store.conn
        counts = {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in (
                "runs", "metrics", "samples", "findings", "profiles",
            )
        }
        print(f"store {args.store}")
        print(f"  schema version: {schema_version(conn)}")
        for table, n in counts.items():
            print(f"  {table:<14} {n}")
        for run in store.runs():
            print(
                f"  run {run['run_id']:>3}  {run['kind']:<9} "
                f"{run['name']}  seed={run['seed']}"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect a persistent performance store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarize a store")
    p_info.add_argument("--store", required=True, help="store .db path")
    p_info.set_defaults(fn=_cmd_info)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
