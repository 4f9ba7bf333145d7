"""Command-line analysis front end: ``python -m repro.analysis``.

Usage::

    python -m repro.analysis query runs --store perf.db
    python -m repro.analysis query regression --store perf.db \\
        --base monitor-seed0 --head monitor-seed1
    python -m repro.analysis query trend --store perf.db \\
        --metric abt_handler_pool_depth --stat p95 --by seed
    python -m repro.analysis query detectors --store perf.db
    python -m repro.analysis query breakdown --store perf.db --run 1
    python -m repro.analysis query critical_path --store perf.db \\
        --run 1 --top 5
    python -m repro.analysis query blame --store perf.db --run 1
    python -m repro.analysis serve --store perf.db --port 9991

``query`` prints one canonical-JSON reply line (byte-deterministic for
a given store and query) -- pipe through ``python -m json.tool`` for a
readable view.  ``--remote host:port`` sends the query to a running
``serve`` instance instead of opening the store in-process.
"""

from __future__ import annotations

import argparse
import sys

from .protocol import Query, encode_reply
from .queries import QUERY_OPS
from .service import AnalysisService, remote_query, serve

#: CLI flag -> (param name, coercion).  Only flags the user passed are
#: forwarded, so each op sees exactly its own parameters.
_PARAM_FLAGS = {
    "base": ("base", str),
    "head": ("head", str),
    "run": ("run", str),
    "request": ("request", str),
    "metric": ("metric", str),
    "stat": ("stat", str),
    "by": ("by", str),
    "prefix": ("prefix", str),
    "kind": ("kind", str),
    "side": ("side", str),
    "interval": ("interval", str),
    "top": ("top", int),
    "limit": ("limit", int),
    "boot": ("boot", int),
    "seed": ("seed", int),
    "alpha": ("alpha", float),
}


def _build_query(args: argparse.Namespace) -> Query:
    params = {}
    for flag, (name, conv) in _PARAM_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            params[name] = conv(value)
    return Query(op=args.op, params=params)


def _cmd_query(args: argparse.Namespace) -> int:
    query = _build_query(args)
    if args.remote:
        host, _, port = args.remote.rpartition(":")
        reply = remote_query(host or "127.0.0.1", int(port), query)
        print(encode_reply(reply))
        return 0 if reply.ok else 1
    service = AnalysisService(args.store)
    try:
        reply = service.execute(query)
        print(encode_reply(reply))
    finally:
        service.store.close()
    if not reply.ok:
        print(f"query failed: {reply.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    def ready(host: str, port: int) -> None:
        print(f"analysis service on {host}:{port} over {args.store}",
              file=sys.stderr)

    try:
        serve(args.store, host=args.host, port=args.port, ready=ready)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Queryable analysis over a persistent performance "
                    "store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_q = sub.add_parser("query", help="run one analysis query")
    p_q.add_argument("op", choices=sorted(QUERY_OPS),
                     help="operation to run")
    p_q.add_argument("--store", required=True, help="store .db path")
    p_q.add_argument("--remote", default=None, metavar="HOST:PORT",
                     help="send to a running server instead of opening "
                          "the store locally")
    for flag in _PARAM_FLAGS:
        p_q.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                         default=None)
    p_q.set_defaults(fn=_cmd_query)

    p_s = sub.add_parser("serve", help="serve queries over TCP")
    p_s.add_argument("--store", required=True, help="store .db path")
    p_s.add_argument("--host", default="127.0.0.1")
    p_s.add_argument("--port", type=int, default=9991)
    p_s.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
