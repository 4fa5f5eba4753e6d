"""The asyncio front end: one port, two protocols, many tenants.

:class:`DedupServer` listens on a single TCP port and sniffs the first
line of each connection:

* ``GET``/``HEAD`` — a tiny HTTP/1.1 responder serving ``/metrics``
  (live Prometheus text exposition with per-tenant ``tenant`` labels,
  rendered by :func:`repro.obs.sinks.prom_text_multi`) and
  ``/healthz``;
* anything else — the JSON-lines ingest protocol below.

**Protocol.**  One JSON object per ``\\n``-terminated line; binary
payloads follow their header line raw.  Requests are answered in
order::

    → {"op": "open", "tenant": "alice", "algorithm": "bf-mhd"}
    ← {"ok": true, "session": "alice-0001", "generation": 0}
    → {"op": "put", "path": "disk0.img", "size": 4096}
    → <4096 raw bytes>
    ← {"ok": true, "store_id": "g000000/disk0.img"}
    → {"op": "commit"}
    ← {"ok": true, "stats": {...}}

plus sessionless ops ``list`` / ``get`` / ``usage`` / ``ping``.
Refusals carry machine-readable codes: ``{"ok": false, "error":
"quota_exceeded", ...}`` or ``{"ok": false, "error": "rate_limited",
"retry_after": 1.25}`` — the 429 analogue.

**Execution model.**  The event loop never runs dedup work — and,
just as important, fleet threads never *wait*.  Dedup work runs on
one shared thread pool (threads named ``fleet-N``).  Each connection
keeps one FIFO of admitted puts, drained by one task it owns: that
task runs the writes on the pool one at a time and sends each reply
as it completes, and every other op waits for the FIFO to drain
first.  So one session's operations run in order, one at a time,
while different sessions (hence tenants) proceed concurrently.
Everything that can block sits on the event loop instead of the pool:
an ``open`` contending for a busy tenant waits on the tenant's
:class:`asyncio.Lock`, in arrival order (up to ``open_wait``, then a
``busy``/``retry_after`` refusal), and rate-limit back-pressure is an
``asyncio.sleep`` before the put enters the FIFO (bounded by
``max_rate_delay``, then a ``rate_limited`` refusal).  The connection
that took a tenant's lock releases it, on the loop, once its session
has committed or aborted — never while a fleet thread may still use
the session.  Otherwise ``workers`` blocked opens or
throttled puts would occupy every pool thread while the tasks that
could unblock them starve — a service-wide deadlock.  At most
``queue_depth`` writes sit in the FIFO or run; past that the handler
stops reading its socket, so a fast client is slowed by TCP
back-pressure long before memory fills.

**Crash safety.**  A connection that drops with an open session —
client crash, network cut — aborts the session, which repairs the
tenant's keyspace via :func:`repro.storage.recover.recover`; a
subsequent fsck is clean.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import time
from collections.abc import Callable, Generator, Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from ..core.config import DedupConfig
from ..obs.metrics import MetricsRegistry
from ..obs.sinks import prom_text_multi
from ..obs.slo import SLOEngine
from ..obs.telemetry import HeartbeatEvent
from ..registry import resolve
from ..storage import StorageBackend
from ..storage.file_manifest import RESTORE_PIECE_SIZE
from .quotas import ServiceError, TenantBusy, TenantQuota
from .session import DedupSession, SessionClosed
from .tenancy import Tenant, TenantRegistry, validate_tenant_id

__all__ = ["DedupServer"]

logger = logging.getLogger("repro.service")

#: Waits shorter than this are not worth a trace span (scheduler
#: noise, uncontended lock acquires) — keeps traces readable.
_WAIT_SPAN_FLOOR = 0.001

#: Longest accepted protocol line (headers are small; payloads are raw).
#: Passed as the StreamReader ``limit`` — overruns surface as a
#: ``bad_request`` reply, not a silent connection drop.
_MAX_LINE = 1 << 16
#: Largest single ``put`` payload (64 MiB — one disk image slice).
_MAX_PAYLOAD = 64 << 20
#: ``retry_after`` hint on a ``busy`` refusal (another session holds
#: the tenant lock past ``open_wait``); how long one is anyone's
#: guess, so suggest a short poll.
_BUSY_RETRY_AFTER = 1.0
#: Largest slice of a ``get`` payload handed to the transport at once:
#: a slice the socket does not take is copied into the transport's
#: buffer, so this bounds that copy, not the piece.
_WRITE_SLICE = 1 << 18


class _ProtocolError(Exception):
    """Malformed client input; the connection is closed after replying."""


class _PayloadBroken(Exception):
    """A ``get`` failed after its header: the connection is closed with
    no reply, since any line written now would land inside the payload."""


#: Canned refusal for session ops arriving without an open session
#: (e.g. puts queued behind one that blew the quota and aborted).
_NO_SESSION: dict[str, Any] = {
    "ok": False,
    "error": "no_session",
    "message": "no open session on this connection",
}


class DedupServer:
    """Multi-tenant dedup service over one shared backend.

    The per-tenant SLO engine behind ``/slo`` and the ``slo.*`` gauges
    in ``/metrics`` is :attr:`slo`, built with the default specs.

    Parameters
    ----------
    backend:
        The shared physical store (typically a
        :class:`~repro.storage.DirectoryBackend`).
    host, port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    default_quota, default_rate_bytes, default_burst_bytes:
        Admission defaults for tenants that ``open`` without explicit
        limits (see :class:`~repro.service.tenancy.TenantRegistry`).
    algorithm, config:
        Dedup algorithm and configuration sessions run with unless the
        ``open`` request overrides the algorithm.
    workers:
        Fleet thread-pool size (``None``: CPU count + 4, capped at 32).
    queue_depth:
        Bound on a connection's FIFO: how many admitted ``put`` writes
        may sit queued or running before the handler stops reading the
        client's socket.
    max_rate_delay:
        Longest back-pressure sleep per ``put`` before the 429-style
        ``rate_limited`` refusal.
    open_wait:
        Longest an ``open`` waits (on the event loop, never on a fleet
        thread) for the tenant's session lock before the ``busy``
        refusal.
    trace_dir:
        When set, every session that opens writes a JSONL trace file
        ``trace-<tenant>-<nnnn>.jsonl`` there (``nnnn``: the tenant's
        session number), continuing the client's trace context when
        the ``open`` request carries one —
        ``repro-dedup trace-view client.jsonl trace-alice-0001.jsonl``
        merges them into one cross-process tree.  A refused or failed
        ``open`` writes none.
    """

    def __init__(
        self,
        backend: StorageBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        default_quota: TenantQuota | None = None,
        default_rate_bytes: float = 0.0,
        default_burst_bytes: float | None = None,
        algorithm: str = "bf-mhd",
        config: DedupConfig | None = None,
        workers: int | None = None,
        queue_depth: int = 4,
        max_rate_delay: float = 5.0,
        open_wait: float = 30.0,
        trace_dir: str | Path | None = None,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.host = host
        self.port = port
        self.algorithm = algorithm
        self.config = config or DedupConfig()
        self.queue_depth = queue_depth
        self.max_rate_delay = max_rate_delay
        self.open_wait = open_wait
        self.registry = TenantRegistry(
            backend,
            default_quota=default_quota,
            default_rate_bytes=default_rate_bytes,
            default_burst_bytes=default_burst_bytes,
        )
        #: The pool every connection's dedup work runs on; the
        #: ``fleet`` thread names are what ``profile --threads`` matches.
        self.fleet = ThreadPoolExecutor(workers, thread_name_prefix="fleet")
        #: Service-global (unlabeled) metrics: connections, HTTP hits.
        self.metrics = MetricsRegistry()
        self.slo = SLOEngine()
        self.trace_dir: Path | None = Path(trace_dir) if trace_dir is not None else None
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._server: asyncio.AbstractServer | None = None
        #: Live connection handlers; :meth:`stop` waits them out.
        self._handlers: set[asyncio.Task[Any]] = set()

    def _heartbeat(self, tenant_id: str, event: HeartbeatEvent) -> None:
        """Log session liveness: the no-trace attribution channel."""
        logger.info(
            "heartbeat tenant=%s files=%d input_bytes=%d der=%.2f active_sessions=%d",
            tenant_id,
            event.files,
            event.input_bytes,
            event.der_so_far,
            self.registry.active_sessions(),
        )

    # ---- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        # Explicit StreamReader limit: readline() raises before any
        # after-the-fact length check could run, so the limit must be
        # ours (not the 64 KiB default by coincidence) and the raise
        # is handled wherever lines are read.
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_LINE
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (call :meth:`start` first)."""
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections, let open ones finish, shut the fleet down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Before Python 3.12, wait_closed() returns while connections are
        # still open; their handlers close their sockets and may still
        # need the fleet to abort a session.
        if self._handlers:
            await asyncio.wait(set(self._handlers))
        self.fleet.shutdown(wait=True)

    # ---- /metrics -------------------------------------------------------

    def metrics_text(self) -> str:
        """The live multi-tenant Prometheus exposition."""
        groups: list[tuple[dict[str, str], MetricsRegistry]] = [({}, self.metrics)]
        groups += [
            ({"tenant": tid}, reg) for tid, reg in self.registry.metrics_by_tenant()
        ]
        groups += [
            ({"tenant": tid}, reg)
            for tid, reg in sorted(self.slo.gauge_registries().items())
        ]
        return prom_text_multi(groups)

    # ---- tenant session lock -------------------------------------------

    async def acquire_tenant_lock(self, tenant: Tenant) -> None:
        """Wait for a tenant's session lock *on the event loop*.

        Never on a fleet thread: if ``open`` waited for the lock inside
        the pool, ``workers`` concurrent opens of one busy tenant would
        occupy every thread while the lock holder's own queued writes
        and commit — the work that would *release* the lock — could
        never get one: a permanent, service-wide deadlock (the PR 6
        review's find).  Waiters are granted in arrival order; past
        ``open_wait`` seconds the open is refused with a
        ``busy``/``retry_after`` error instead of queueing forever.
        """
        try:
            await asyncio.wait_for(tenant.lock.acquire(), self.open_wait)
        except asyncio.TimeoutError:  # not the builtin TimeoutError before 3.11
            raise TenantBusy(tenant.tenant_id, _BUSY_RETRY_AFTER) from None

    # ---- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.counter("service_connections").inc()
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            try:
                first = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # Protocol unknown at this point; a JSON refusal is the
                # sane default (HTTP request lines are never this long).
                writer.write(_too_long_payload() + b"\n")
                await writer.drain()
                return
            if not first:
                return
            if first.startswith(b"GET ") or first.startswith(b"HEAD "):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_protocol(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        # Drain headers (we need none of them).
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                return  # oversized header line; just drop the connection
            if line in (b"", b"\r\n", b"\n"):
                break
        parts = request_line.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        self.metrics.counter("service_http_requests").inc()
        if path == "/metrics":
            body = self.metrics_text().encode("utf-8")
            status = "200 OK"
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/slo":
            body = (json.dumps(self.slo.snapshot(), sort_keys=True) + "\n").encode("utf-8")
            status = "200 OK"
            ctype = "application/json; charset=utf-8"
        elif path == "/healthz":
            body = b"ok\n"
            status = "200 OK"
            ctype = "text/plain; charset=utf-8"
        else:
            body = b"not found\n"
            status = "404 Not Found"
            ctype = "text/plain; charset=utf-8"
        head = (
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        if not request_line.startswith(b"HEAD "):
            writer.write(body)
        await writer.drain()

    async def _serve_protocol(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        conn = _Connection(self, reader, writer)
        try:
            await conn.run(first_line)
        finally:
            await conn.cleanup()


def _error_payload(exc: BaseException) -> dict[str, Any]:
    if isinstance(exc, ServiceError):
        out: dict[str, Any] = {"ok": False, "error": exc.code, "message": str(exc)}
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            out["retry_after"] = round(retry_after, 3)
        return out
    if isinstance(exc, SessionClosed):
        return dict(_NO_SESSION)
    return {"ok": False, "error": "failed", "message": str(exc)}


def _too_long_payload() -> bytes:
    return json.dumps(
        {
            "ok": False,
            "error": "bad_request",
            "message": f"request line exceeds {_MAX_LINE} bytes",
        },
        separators=(",", ":"),
    ).encode()


#: A queued write: runs on a fleet thread, returns the put's reply.
_Put = Callable[[], dict[str, Any]]


class _Connection:
    """One JSON-lines protocol connection (at most one open session)."""

    def __init__(
        self,
        server: DedupServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.session: DedupSession | None = None
        #: Admitted puts in arrival order: a write to run on the fleet, or
        #: a reply already known (a refusal).  ``None`` ends the drain.
        self.puts: asyncio.Queue[_Put | dict[str, Any] | None] = asyncio.Queue()
        #: One per write queued or running (see ``queue_depth``).  A
        #: bounded queue would not count the write in flight, so it
        #: would hold one more payload.
        self.slots = asyncio.Semaphore(server.queue_depth)
        self._drainer = asyncio.create_task(self._drain_puts())
        #: When the session opened, for the SLO engine.
        self._session_t0 = 0.0

    def _end_session(self) -> None:
        """Once the session has left ``open``, let it go: report its
        latency and outcome to the SLO engine and release its tenant's
        lock, exactly once.

        Called after each fleet call that can end the session — a
        commit, an abort, a write or commit that aborted it, the
        teardown close — so no fleet thread is still using it.  A
        no-op while the session is open or when there is none.
        """
        session = self.session
        if session is None or session.state == "open":
            return
        self.session = None
        elapsed = time.perf_counter() - self._session_t0
        ok = session.state == "committed"
        self.server.slo.record_session(session.tenant.tenant_id, elapsed, ok=ok)
        session.tenant.lock.release()

    # -- plumbing ---------------------------------------------------------

    async def _run_in_fleet(self, fn: Callable[[], object]) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.server.fleet, fn)

    def _send(self, obj: dict[str, Any]) -> None:
        self.writer.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    async def _drain_puts(self) -> None:
        """Run the queued writes one at a time, sending each reply as it
        is known; returns at the ``None`` :meth:`cleanup` queues."""
        while (item := await self.puts.get()) is not None:
            try:
                self._send(item if isinstance(item, dict) else await self._run_write(item))
            finally:
                self.puts.task_done()

    async def _run_write(self, work: _Put) -> dict[str, Any]:
        """One queued write on the fleet; a failure becomes its reply."""
        try:
            reply: dict[str, Any] = await self._run_in_fleet(work)
        except Exception as e:  # noqa: BLE001 - answered as a reply
            self._end_session()  # the write may have aborted the session
            reply = _error_payload(e)
        finally:
            self.slots.release()
        return reply

    # -- main loop --------------------------------------------------------

    async def run(self, first_line: bytes) -> None:
        line: bytes | None = first_line
        while True:
            if line is None:
                try:
                    line = await self.reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # StreamReader limit (== _MAX_LINE) overrun: answer
                    # before closing rather than dying silently.
                    self.writer.write(_too_long_payload() + b"\n")
                    await self.writer.drain()
                    return
            if not line:
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("not an object")
            except ValueError as e:
                self._send({"ok": False, "error": "bad_request", "message": str(e)})
                await self.writer.drain()
                return
            line = None
            op = request.get("op")
            response: dict[str, Any] | None
            try:
                if op == "put":
                    await self._op_put(request)
                    continue  # the drain task replies (pipelined)
                await self.puts.join()
                if op == "open":
                    response = await self._op_open(request)
                elif op == "commit":
                    response = await self._op_commit()
                elif op == "abort":
                    response = await self._op_abort()
                elif op == "list":
                    response = await self._op_list(request)
                elif op == "get":
                    response = await self._op_get(request)
                elif op == "usage":
                    response = await self._op_usage(request)
                elif op == "ping":
                    response = {"ok": True, "pong": True}
                else:
                    response = {
                        "ok": False,
                        "error": "bad_request",
                        "message": f"unknown op {op!r}",
                    }
            except _ProtocolError as e:
                self._send({"ok": False, "error": "bad_request", "message": str(e)})
                await self.writer.drain()
                return
            except _PayloadBroken:
                return
            except ServiceError as e:
                response = _error_payload(e)
            except Exception as e:  # noqa: BLE001 - reply, keep serving
                # Anything an op raises that is not a typed refusal —
                # a commit/finalize failure, a backend error from
                # list/get — is answered as "failed" instead of
                # killing the connection with no reply.
                response = _error_payload(e)
            if response is not None:
                self._send(response)
            await self.writer.drain()

    async def cleanup(self) -> None:
        """Abort an abandoned session (disconnect mid-push).

        The queued writes run out first, so no session is ever touched
        by two threads at once.
        """
        self.puts.put_nowait(None)
        await self._drainer
        if self.session is not None:
            try:
                await self._run_in_fleet(self.session.close)
            finally:
                self._end_session()

    # -- session ops ------------------------------------------------------

    def _require(self, request: dict[str, Any], key: str, kind: type) -> Any:
        value = request.get(key)
        if not isinstance(value, kind):
            raise _ProtocolError(f"{key!r} must be {kind.__name__}")
        return value

    def _tenant_arg(self, request: dict[str, Any]) -> str:
        """The validated ``tenant`` field (bad ids → ``bad_request``)."""
        tenant_id = self._require(request, "tenant", str)
        try:
            return validate_tenant_id(tenant_id)
        except ValueError as e:
            raise _ProtocolError(str(e)) from None

    def _int_field(self, request: dict[str, Any], key: str, default: int = 0) -> int:
        value = request.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise _ProtocolError(f"{key!r} must be an integer")
        return value

    async def _op_open(self, request: dict[str, Any]) -> dict[str, Any]:
        if self.session is not None:
            raise _ProtocolError("a session is already open on this connection")
        tenant_id = self._tenant_arg(request)
        algorithm = request.get("algorithm") or self.server.algorithm
        if not isinstance(algorithm, str):
            raise _ProtocolError("'algorithm' must be str")
        try:
            resolve(algorithm)  # unknown names answer here, as bad_request
        except ValueError as e:
            raise _ProtocolError(str(e)) from None
        quota = None
        if "max_bytes" in request or "max_files" in request:
            try:
                quota = TenantQuota(
                    max_bytes=self._int_field(request, "max_bytes"),
                    max_files=self._int_field(request, "max_files"),
                )
            except ValueError as e:
                raise _ProtocolError(str(e)) from None
        rate = request.get("rate_bytes")
        if rate is not None and (
            isinstance(rate, bool) or not isinstance(rate, (int, float))
        ):
            raise _ProtocolError("'rate_bytes' must be a number")
        # Optional trace context (old clients simply omit both fields).
        trace_id = request.get("trace_id", "")
        parent_span = request.get("parent_span", "")
        if not isinstance(trace_id, str) or not isinstance(parent_span, str):
            raise _ProtocolError("'trace_id'/'parent_span' must be str")
        registry = self.server.registry
        register = functools.partial(
            registry.register,
            tenant_id,
            quota=quota,
            rate_bytes=float(rate) if rate is not None else None,
        )
        try:
            if tenant_id in registry.registered():
                tenant = register()
            else:  # a first registration walks the store: not on the loop
                tenant = await self._run_in_fleet(register)
        except ValueError as e:
            raise _ProtocolError(str(e)) from None
        session = DedupSession(
            tenant,
            algorithm=algorithm,
            config=self.server.config,
            max_rate_delay=self.server.max_rate_delay,
            trace_dir=self.server.trace_dir,
            trace_id=trace_id,
            parent_ref=parent_span,
            heartbeat=functools.partial(self.server._heartbeat, tenant_id),
        )
        # Waiting out another session of the same tenant happens here
        # on the event loop; the fleet thread only does the warm start.
        lock_t0 = time.perf_counter()
        try:
            await self.server.acquire_tenant_lock(tenant)
        except TenantBusy:
            self.server.slo.record_admission(tenant_id, rejected=True)
            raise
        lock_wait = time.perf_counter() - lock_t0
        try:
            await self._run_in_fleet(session.open)
        except BaseException:
            tenant.lock.release()
            raise
        if lock_wait >= _WAIT_SPAN_FLOOR:
            session.record_wait("wait.tenant_lock", lock_wait)
        self.session = session
        self._session_t0 = time.perf_counter()
        self.server.slo.record_admission(tenant_id)
        response = {
            "ok": True,
            "session": session.session_id,
            "generation": session.generation,
            "algorithm": session.algorithm,
        }
        if session.trace_id:
            response["trace_id"] = session.trace_id
        return response

    async def _op_put(self, request: dict[str, Any]) -> None:
        path = self._require(request, "path", str)
        size = self._require(request, "size", int)
        if not 0 <= size <= _MAX_PAYLOAD:
            raise _ProtocolError(f"size out of range: {size}")
        payload = await self.reader.readexactly(size)
        session = self.session
        if session is None or session.state != "open":
            # Payload already consumed; answer in order like any put.
            self.puts.put_nowait(dict(_NO_SESSION))
            return
        # Admission runs here on the event loop: the quota pre-check
        # and token-bucket reservation are quick, and the back-pressure
        # delay must be an asyncio.sleep — a session sleeping out its
        # rate limit on a fleet thread would hold pool capacity that
        # every other session's writes need.
        tenant_id = session.tenant.tenant_id
        try:
            delay = session.admit(size)
        except ServiceError as e:
            # Refused; still answered in submission order.
            self.server.slo.record_admission(tenant_id, rejected=True)
            self.puts.put_nowait(_error_payload(e))
            return
        except SessionClosed as e:
            # The session aborted under a queued put — not an
            # admission-control refusal, so no SLO rejection.
            self.puts.put_nowait(_error_payload(e))
            return
        self.server.slo.record_admission(tenant_id)
        if delay > 0:
            await asyncio.sleep(delay)
            session.record_wait("wait.rate", delay)
        # Bounded admission: while ``queue_depth`` writes are queued or
        # running this coroutine parks here, the socket goes unread,
        # and the client feels TCP back-pressure.
        queue_t0 = time.perf_counter()
        await self.slots.acquire()
        queue_wait = time.perf_counter() - queue_t0
        if queue_wait >= _WAIT_SPAN_FLOOR:
            session.record_wait("wait.queue", queue_wait)
        queued = time.perf_counter()

        def work() -> dict[str, Any]:
            lane_wait = time.perf_counter() - queued
            if lane_wait >= _WAIT_SPAN_FLOOR:
                session.record_wait("wait.lane", lane_wait)
            return {"ok": True, "store_id": session.write(path, payload)}

        self.puts.put_nowait(work)

    async def _op_commit(self) -> dict[str, Any]:
        session = self.session
        if session is None:
            return dict(_NO_SESSION)
        try:
            stats = await self._run_in_fleet(session.commit)
        finally:
            self._end_session()
        return {
            "ok": True,
            "session": session.session_id,
            "stats": stats.as_dict(),
            "usage": session.tenant.ledger.snapshot(),
        }

    async def _op_abort(self) -> dict[str, Any]:
        session = self.session
        if session is None:
            return dict(_NO_SESSION)
        try:
            report = await self._run_in_fleet(session.abort)
        finally:
            self._end_session()
        return {"ok": True, "repairs": report.repairs, "actions": report.actions}

    # -- sessionless ops --------------------------------------------------

    async def _op_list(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant_id = self._tenant_arg(request)
        files = self.server.registry.files(tenant_id)
        return {"ok": True, "files": await self._run_in_fleet(files.latest)}

    async def _op_get(self, request: dict[str, Any]) -> dict[str, Any] | None:
        """Restore one file: a size header line, then the raw bytes, streamed.

        The first fleet call resolves ``path`` and reads the first
        batch, so an unknown path or an early read failure is still an
        error reply, and a file of up to one batch costs one call.  A
        failure past the header closes the connection
        (:class:`_PayloadBroken`) after closing the restore stream on
        the fleet, which releases the files it holds open.  Returns
        ``None`` — the payload response is written here, not by the
        main loop.
        """
        tenant_id = self._tenant_arg(request)
        path = self._require(request, "path", str)
        files = self.server.registry.files(tenant_id)

        def first() -> tuple[int, Generator[bytes, None, None], list[bytes]]:
            size, pieces = files.iter_restore(path)
            return size, pieces, _next_batch(pieces)

        try:
            size, pieces, batch = await self._run_in_fleet(first)
        except KeyError as e:
            return {"ok": False, "error": "not_found", "message": str(e)}
        self._send({"ok": True, "path": path, "size": size})
        sent = 0
        try:
            sent = await self._write_pieces(batch)
            while sent < size:
                batch = await self._run_in_fleet(lambda: _next_batch(pieces))
                if not batch:
                    raise ValueError(f"restore ended at {sent} bytes")
                sent += await self._write_pieces(batch)
        except Exception as e:
            logger.warning(
                "get %s %r failed after %d/%d bytes", tenant_id, path, sent, size, exc_info=e
            )
            await self._run_in_fleet(pieces.close)
            raise _PayloadBroken from e
        return None

    async def _write_pieces(self, batch: list[bytes]) -> int:
        """Write ``batch`` as payload, draining each slice; returns its
        byte count.  Empties the list, so no written piece stays
        referenced while the caller reads the next batch."""
        data = memoryview(b"".join(batch))  # a one-piece batch is not copied
        batch.clear()
        for at in range(0, len(data), _WRITE_SLICE):
            self.writer.write(data[at : at + _WRITE_SLICE])
            await self.writer.drain()
        return len(data)

    async def _op_usage(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant_id = self._tenant_arg(request)
        try:
            tenant = self.server.registry.get(tenant_id)
        except KeyError as e:
            return {"ok": False, "error": "not_found", "message": str(e)}
        return {"ok": True, "tenant": tenant_id, "usage": tenant.ledger.snapshot()}


def _next_batch(pieces: Iterator[bytes]) -> list[bytes]:
    """A restore stream's next pieces, until they reach
    :data:`~repro.storage.file_manifest.RESTORE_PIECE_SIZE` bytes or the
    stream ends: what one fleet call reads for a ``get``."""
    batch: list[bytes] = []
    nbytes = 0
    for piece in pieces:
        batch.append(piece)
        nbytes += len(piece)
        if nbytes >= RESTORE_PIECE_SIZE:
            break
    return batch

