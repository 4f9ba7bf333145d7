"""Analytical services over the persistent performance store.

The ``algo74/py-sim-serv`` pattern applied to this repository: a small
request/response API (:class:`~repro.analysis.protocol.Query` /
:class:`~repro.analysis.protocol.Reply` over canonical JSON) that
answers cross-run questions -- regression between two runs, percentile
trends vs. scale or seed, knob-importance tables, detector-event
summaries -- every statistic with a bootstrap confidence interval,
never a bare median.

In-process::

    from repro.analysis import AnalysisService, Query

    service = AnalysisService("perf.db")
    reply = service.execute(Query("regression",
                                  {"base": "run-a", "head": "run-b"}))

Command line::

    python -m repro.analysis query regression --store perf.db \\
        --base run-a --head run-b
    python -m repro.analysis serve --store perf.db

See ``docs/analysis-service.md`` for the protocol and schema.
"""

from .protocol import (
    PROTOCOL_VERSION,
    Query,
    Reply,
    decode_query,
    decode_reply,
    encode_query,
    encode_reply,
)
from .queries import QUERY_OPS, run_query
from .service import AnalysisService, remote_query, serve
from .stats import bootstrap_ci, bootstrap_delta_ci, percentile

__all__ = [
    "AnalysisService",
    "PROTOCOL_VERSION",
    "QUERY_OPS",
    "Query",
    "Reply",
    "bootstrap_ci",
    "bootstrap_delta_ci",
    "decode_query",
    "decode_reply",
    "encode_query",
    "encode_reply",
    "percentile",
    "remote_query",
    "run_query",
    "serve",
]
