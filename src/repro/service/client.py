"""Blocking TCP client for the dedup service's JSON-lines protocol.

The client mirrors the session lifecycle one-to-one — ``open`` /
``put`` / ``commit`` / ``abort`` plus the sessionless ``list_files`` /
``get`` / ``get_into`` / ``usage`` — and converts wire refusals back into the
exceptions the library raises locally
(:class:`~repro.service.quotas.QuotaExceeded`,
:class:`~repro.service.quotas.RateLimited`), so code written against
:class:`~repro.service.session.DedupSession` ports to the network with
a search-and-replace.

``put`` is synchronous (one request, one response).  ``push_many``
pipelines: all payloads are written before any response is read, which
exercises the server's bounded per-session queue and is how a real
backup agent would stream a disk image's slices.

**Tracing.**  Constructed with a traced
:class:`~repro.obs.telemetry.Telemetry`, the client opens a root
``client.push`` span per session and sends its trace id + span ref in
the ``open`` request; a server started with ``--trace-dir`` continues
the same trace, and ``repro-dedup trace-view`` merges both files into
one cross-process tree.  Servers predating the trace fields ignore
them; clients without telemetry send none.
"""

from __future__ import annotations

import io
import json
import socket
from typing import Any, BinaryIO

from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..obs.trace import Span
from .quotas import QuotaExceeded, RateLimited, ServiceError, TenantBusy

__all__ = ["ServiceClient"]

#: Largest socket read of a ``get`` payload, and so the most ``get_into``
#: hands its sink at once.
_READ_PIECE = 1 << 20


def _raise_for(response: dict[str, Any]) -> dict[str, Any]:
    """Return an ok response; map refusals back to typed exceptions."""
    if response.get("ok"):
        return response
    code = response.get("error", "service_error")
    message = str(response.get("message", code))
    if code == "quota_exceeded":
        raise QuotaExceeded("?", message)
    if code == "rate_limited":
        raise RateLimited("?", float(response.get("retry_after", 0.0)))
    if code == "busy":
        raise TenantBusy("?", float(response.get("retry_after", 0.0)))
    err = ServiceError(message)
    err.code = code
    raise err


class ServiceClient:
    """One connection to a :class:`~repro.service.server.DedupServer`.

    ``telemetry`` (optional) enables client-side tracing: a traced
    Telemetry (one with a sink) makes every ``open``→``commit``/
    ``abort`` lifecycle a root ``client.push`` span, with per-put
    ``client.send`` child spans, and propagates the trace context over
    the wire.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._rfile = self._sock.makefile("rb")
        self._tel = telemetry if telemetry is not None else NULL_TELEMETRY
        self._root: Span | None = None

    # -- wire plumbing ----------------------------------------------------

    def _send(self, obj: dict[str, Any], payload: bytes = b"") -> None:
        line = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
        self._sock.sendall(line + payload)

    def _recv(self) -> dict[str, Any]:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not isinstance(response, dict):
            raise ConnectionError(f"malformed response: {response!r}")
        return response

    # -- session lifecycle ------------------------------------------------

    def open(
        self,
        tenant: str,
        algorithm: str | None = None,
        max_bytes: int | None = None,
        max_files: int | None = None,
        rate_bytes: float | None = None,
    ) -> dict[str, Any]:
        """Open a push session (quota/rate apply on first registration)."""
        request: dict[str, Any] = {"op": "open", "tenant": tenant}
        if algorithm is not None:
            request["algorithm"] = algorithm
        if max_bytes is not None:
            request["max_bytes"] = max_bytes
        if max_files is not None:
            request["max_files"] = max_files
        if rate_bytes is not None:
            request["rate_bytes"] = rate_bytes
        if self._tel.tracing and self._root is None:
            root = self._tel.span("client.push", tenant=tenant)
            if isinstance(root, Span):
                self._root = root.__enter__()
                request["trace_id"] = self._tel.trace_id
                request["parent_span"] = self._tel.span_ref(self._root.span_id)
        try:
            return _raise_for(self._send_recv(request))
        except BaseException:
            self._finish_trace("refused")
            raise

    def _send_recv(self, request: dict[str, Any]) -> dict[str, Any]:
        self._send(request)
        return self._recv()

    def _finish_trace(self, outcome: str) -> None:
        """Close the root span (if a traced session is in flight)."""
        root = self._root
        if root is not None:
            self._root = None
            root.set_attr("outcome", outcome)
            root.__exit__(None, None, None)

    def put(self, path: str, data: bytes) -> dict[str, Any]:
        """Ingest one file and wait for its result."""
        with self._tel.span("client.send", path=path, size=len(data)):
            self._send({"op": "put", "path": path, "size": len(data)}, data)
        return _raise_for(self._recv())

    def push_many(self, files: list[tuple[str, bytes]]) -> list[dict[str, Any]]:
        """Pipeline many puts: write everything, then read all results.

        Raw responses are returned (not raised) so one quota refusal
        mid-batch does not hide the later per-file outcomes.
        """
        for path, data in files:
            with self._tel.span("client.send", path=path, size=len(data)):
                self._send({"op": "put", "path": path, "size": len(data)}, data)
        # Any non-put request forces the server to flush put responses.
        self._send({"op": "ping"})
        responses = [self._recv() for _ in files]
        self._recv()  # the pong
        return responses

    def commit(self) -> dict[str, Any]:
        """Finalize the open session; returns stats and usage."""
        self._send({"op": "commit"})
        try:
            response = _raise_for(self._recv())
        except BaseException:
            self._finish_trace("failed")
            raise
        self._finish_trace("committed")
        return response

    def abort(self) -> dict[str, Any]:
        """Abort the open session (server repairs the keyspace)."""
        self._send({"op": "abort"})
        try:
            return _raise_for(self._recv())
        finally:
            self._finish_trace("aborted")

    # -- sessionless ops --------------------------------------------------

    def list_files(self, tenant: str) -> dict[str, str]:
        """Client path → newest-generation store id, for one tenant."""
        self._send({"op": "list", "tenant": tenant})
        response = _raise_for(self._recv())
        files = response["files"]
        assert isinstance(files, dict)
        return files

    def get_into(self, tenant: str, path: str, out: BinaryIO) -> int:
        """Restore the newest generation of one file into ``out``, a
        piece at a time; returns its size.

        ``ConnectionError`` if the payload ends short (the server closes
        the connection when a restore fails past the header); ``out``
        then holds a prefix of the file.
        """
        self._send({"op": "get", "tenant": tenant, "path": path})
        size = int(_raise_for(self._recv())["size"])
        got = 0
        while got < size:
            piece = self._rfile.read(min(size - got, _READ_PIECE))
            if not piece:
                raise ConnectionError(f"short read: {got}/{size} bytes")
            out.write(piece)
            got += len(piece)
        return size

    def get(self, tenant: str, path: str) -> bytes:
        """Restore the newest generation of one file, whole."""
        out = io.BytesIO()
        self.get_into(tenant, path, out)
        return out.getvalue()

    def usage(self, tenant: str) -> dict[str, Any]:
        """The tenant's quota ledger snapshot."""
        self._send({"op": "usage", "tenant": tenant})
        usage = _raise_for(self._recv())["usage"]
        assert isinstance(usage, dict)
        return usage

    def ping(self) -> bool:
        """Round-trip liveness check."""
        self._send({"op": "ping"})
        return bool(self._recv().get("pong"))

    def close(self) -> None:
        """Close the connection (an open session aborts server-side)."""
        self._finish_trace("abandoned")
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
