"""The analysis service: in-process execution and the socket server.

:class:`AnalysisService` wraps one :class:`~repro.store.PerfStore` and
executes :class:`~repro.analysis.protocol.Query` objects; exceptions
become error replies, never propagate.  :func:`serve` exposes the same
service over newline-delimited canonical JSON on a TCP socket (the
py-sim-serv deployment shape); :func:`remote_query` is the matching
client."""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Optional, Union

from .protocol import (
    Query,
    Reply,
    decode_query,
    decode_reply,
    encode_query,
    encode_reply,
)
from .queries import run_query

__all__ = ["AnalysisService", "MAX_LINE_BYTES", "remote_query", "serve"]

#: Longest request line the server reads, newline included.  Queries are
#: a few hundred bytes; the cap keeps a client that never sends a newline
#: from growing server memory without limit.
MAX_LINE_BYTES = 1 << 20

#: How long a rejected connection is drained before it is closed.
_DRAIN_S = 1.0


class AnalysisService:
    """Request/response analysis over one performance store."""

    def __init__(self, store):
        from ..store import PerfStore

        self.store = (
            store if isinstance(store, PerfStore) else PerfStore(store)
        )
        # One SQLite connection serves all server threads; queries are
        # serialized (they are read-only and fast, so this is simpler
        # and safer than per-thread connections).
        self._lock = threading.Lock()

    def execute(self, query: Union[Query, str]) -> Reply:
        """Run one query; malformed input or a failing operation yields
        an error reply (the server must survive bad requests)."""
        try:
            if isinstance(query, str):
                query = decode_query(query)
            with self._lock:
                result = run_query(self.store, query.op, query.params)
            return Reply(op=query.op, ok=True, result=result)
        except Exception as exc:
            op = query.op if isinstance(query, Query) else "?"
            return Reply(op=op, ok=False, error=f"{type(exc).__name__}: {exc}")

    def handle_line(self, line: str) -> str:
        """One wire round-trip: JSON request line in, reply line out."""
        return encode_reply(self.execute(line))


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                return
            if len(raw) > MAX_LINE_BYTES:
                self._reject(
                    f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            reply = self.server.service.handle_line(line)  # type: ignore[attr-defined]
            self._send(reply)

    def _send(self, reply: str) -> None:
        self.wfile.write(reply.encode() + b"\n")
        self.wfile.flush()

    def _reject(self, error: str) -> None:
        """Answer with one error reply, then end the connection."""
        self._send(encode_reply(Reply(op="?", ok=False, error=error)))
        # Closing a socket with unread input makes the kernel reset the
        # connection, which can discard the reply still in flight; so
        # half-close first and discard what the client still sends, for
        # a bounded time.
        conn = self.connection
        conn.shutdown(socket.SHUT_WR)
        conn.settimeout(_DRAIN_S)
        deadline = time.monotonic() + _DRAIN_S
        try:
            while time.monotonic() < deadline and conn.recv(65536):
                pass
        except OSError:
            pass


class AnalysisServer(socketserver.ThreadingTCPServer):
    """TCP front end; one request line per reply line, many per
    connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: AnalysisService):
        super().__init__(address, _Handler)
        self.service = service


def serve(
    store,
    *,
    host: str = "127.0.0.1",
    port: int = 9991,
    ready: Optional[callable] = None,
) -> None:
    """Serve analysis queries until interrupted.

    ``ready(host, port)`` is called once the socket is bound (the bound
    port matters when ``port=0`` picks a free one)."""
    service = AnalysisService(store)
    with AnalysisServer((host, port), service) as server:
        if ready is not None:
            ready(*server.server_address)
        server.serve_forever()


def remote_query(
    host: str, port: int, query: Query, *, timeout: float = 30.0
) -> Reply:
    """Send one query to a running server and decode the reply."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(encode_query(query).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return decode_reply(buf.decode())
