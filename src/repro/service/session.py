"""DedupSession: one tenant push with an explicit, crash-safe lifecycle.

The library API (:class:`~repro.core.base.Deduplicator`) is a batch
object: construct, ``process()`` a corpus, read the stats.  A service
needs the same machinery with an explicit lifecycle it can drive from a
network protocol and abandon safely mid-way::

    open  ──►  (admit, write(path, data))*  ──►  commit  ──►  (stats)
                        │
                        └──────►  abort  ──►  (store repaired)

:class:`DedupSession` provides exactly that.  ``open()`` builds a
deduplicator over the tenant's
:class:`~repro.storage.backend.PrefixedBackend` view and
``warm_start()``\\ s it so this push deduplicates against everything the
tenant stored before — the incremental re-push path: unchanged files
cost (almost) nothing, only deltas pay.

A session takes no lock.  The store layout assumes one writer per
tenant keyspace at a time, so whoever drives sessions serialises them
per tenant: the server holds ``Tenant.lock`` from before ``open()``
until the session has committed or aborted; a library caller runs one
session of a tenant at a time.

Admission is its own step, :meth:`DedupSession.admit`, run before
each ``write()``: it checks the tenant's
:class:`~repro.service.quotas.QuotaLedger` optimistically before any
byte moves, and reserves from the tenant's token bucket, which meters
bytes/second — it returns a back-pressure delay for the caller to sleep
while the debt is payable, and raises
:class:`~repro.service.quotas.RateLimited` with a ``retry_after`` once
it is not.  ``write()`` itself only ingests; the session's
:class:`~repro.core.protocols.IngestObserver` charges the ledger
authoritatively per chunk batch, so a write past the quota is cut off
mid-stream whatever was admitted.

``abort()`` — explicit, or implicit when a write raises — discards the
in-flight deduplicator and repairs the tenant's keyspace with
:func:`repro.storage.recover.recover`, so a half-ingested file is
quarantined rather than left to corrupt later restores.  A session
abort is deliberately indistinguishable from a process crash at the
same point: both lean on the same recovery semantics.

**Generations.**  Ingesting a file id again replaces its recipe, and a
push that aborts after a file finished must not cost that file's
committed version.  Sessions therefore namespace file ids by push
generation, the version axis: client path ``disk0.img`` is stored as
``g000001/disk0.img`` by the second push.  :func:`latest_files`
resolves a bare path to its newest generation.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from ..core.base import Deduplicator, DedupStats
from ..core.config import DedupConfig
from ..obs.sinks import JsonlTraceSink
from ..obs.telemetry import HeartbeatEvent, Telemetry
from ..obs.trace import Span
from ..registry import resolve
from ..storage.recover import RecoveryReport, recover
from ..workloads.machine import BackupFile
from .quotas import RateLimited
from .tenancy import Tenant, latest_files, split_store_id

__all__ = [
    "DedupSession",
    "SessionClosed",
    "latest_files",
    "split_store_id",
]


class SessionClosed(RuntimeError):
    """An operation was attempted on a session that is not open."""


class _QuotaObserver:
    """The session's :class:`~repro.core.protocols.IngestObserver`.

    Charges the tenant ledger per chunk batch *before* the batch
    reaches the dedup core; a :class:`QuotaExceeded` raised here aborts
    the ingest with none of the over-quota bytes stored.
    """

    def __init__(self, session: DedupSession) -> None:
        self._session = session

    def begin_file(self, file: BackupFile) -> None:
        s = self._session
        s.tenant.ledger.charge_file(s.tenant.tenant_id)

    def observe_batch(self, nbytes: int, nchunks: int) -> None:
        s = self._session
        s.tenant.ledger.charge_bytes(s.tenant.tenant_id, nbytes)
        s.tenant.inc_metric("service_ingest_bytes", nbytes)
        s.tenant.inc_metric("service_ingest_chunks", nchunks)

    def end_file(self, file: BackupFile) -> None:
        self._session.tenant.inc_metric("service_ingest_files")


class DedupSession:
    """One open→write*→commit/abort push for one tenant.

    Parameters
    ----------
    tenant:
        Control-plane record from the :class:`~repro.service.tenancy.TenantRegistry`.
    algorithm:
        Registry name of the deduplicator class (default ``bf-mhd``).
    config:
        Dedup configuration; defaults to :class:`DedupConfig`'s.
    max_rate_delay:
        Longest back-pressure delay :meth:`admit` hands out before
        refusing with :class:`RateLimited`.
    trace_dir:
        When set, :meth:`open` writes the session's spans to
        ``trace-<session id>.jsonl`` in this directory — created only
        once the warm start has succeeded, so a failed open leaves no
        file.  The session's root ``session`` span encloses the dedup
        core's ingest spans, all stamped with the session's trace
        context.
    trace_id / parent_ref:
        Cross-process trace context received over the wire: the
        client's trace id (fresh one generated when empty) and the
        span ref (``"<origin>#<id>"``) of the client's root span,
        recorded as the root span's ``remote_parent`` so
        ``merge_traces`` can stitch client and server files.
    heartbeat:
        Forwarded into the session's :class:`Telemetry`: the callback
        receives the run's heartbeat events.
    """

    def __init__(
        self,
        tenant: Tenant,
        algorithm: str = "bf-mhd",
        config: DedupConfig | None = None,
        max_rate_delay: float = 5.0,
        trace_dir: str | Path | None = None,
        trace_id: str = "",
        parent_ref: str = "",
        heartbeat: Callable[[HeartbeatEvent], None] | None = None,
    ) -> None:
        self.tenant = tenant
        self.algorithm = algorithm
        self.config = config or DedupConfig()
        self.max_rate_delay = max_rate_delay
        self._trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._trace_id = trace_id
        self._parent_ref = parent_ref
        self._heartbeat = heartbeat
        self._state = "new"
        self.session_id = ""
        self.generation = -1
        self._dedup: Deduplicator | None = None
        self._telemetry: Telemetry | None = None
        self._root_span: Span | None = None
        self._written: dict[str, str] = {}  # client path -> store id, for commit
        self.stats: DedupStats | None = None
        self.recovery: RecoveryReport | None = None

    # ---- lifecycle ------------------------------------------------------

    @property
    def state(self) -> str:
        """``new`` | ``open`` | ``committed`` | ``aborted``."""
        return self._state

    def open(self) -> DedupSession:
        """Warm-start a dedup run over the tenant's view.

        Takes no lock: the caller runs one session of a tenant at a
        time (the server holds ``Tenant.lock`` across the session).
        A failed open leaves the session ``new``.
        """
        if self._state != "new":
            raise SessionClosed(f"cannot open a session in state {self._state!r}")
        self.tenant.sessions_opened += 1
        self.session_id = f"{self.tenant.tenant_id}-{self.tenant.sessions_opened:04d}"
        dedup_cls = resolve(self.algorithm)
        dedup = dedup_cls(self.config, backend=self.tenant.view)
        dedup.warm_start()
        # Some path's newest store id carries the newest generation:
        # only the first open (or first after an abort) reads the store.
        gens = [split_store_id(i)[0] for i in self.tenant.files.latest().values()]
        self.generation = max(gens, default=-1) + 1
        # The trace file opens last, so a failed open leaves none.
        tel = Telemetry(
            sinks=(
                [JsonlTraceSink(str(self._trace_dir / f"trace-{self.session_id}.jsonl"))]
                if self._trace_dir is not None
                else []
            ),
            heartbeat=self._heartbeat,
            trace_id=self._trace_id,
            origin=f"server {self.session_id}",
        )
        dedup.telemetry = tel
        dedup.ingest_observer = _QuotaObserver(self)
        self._dedup = dedup
        self._telemetry = tel
        if tel.tracing:
            attrs = {
                "tenant": self.tenant.tenant_id,
                "session": self.session_id,
                "generation": self.generation,
            }
            if self._parent_ref:
                attrs["remote_parent"] = self._parent_ref
            root = tel.span("session", **attrs)
            if isinstance(root, Span):
                self._root_span = root.__enter__()
        self._state = "open"
        self.tenant.inc_metric("service_sessions_opened")
        return self

    def store_id_for(self, path: str) -> str:
        """The store-side file id this session will write ``path`` as."""
        return f"g{self.generation:06d}/{path}"

    # ---- trace context ---------------------------------------------------

    @property
    def trace_id(self) -> str:
        """The session's cross-process trace id ("" when not tracing)."""
        tel = self._telemetry
        return tel.trace_id if tel is not None else ""

    def record_wait(self, name: str, seconds: float) -> None:
        """Attribute a measured wait to this session's trace.

        Thread-safe and stack-free (a closed span parented on the
        session root), so the server can report the waits it absorbs on
        the session's behalf while a fleet thread owns the span stack:
        ``wait.tenant_lock`` (the server's wait for the tenant lock
        before :meth:`open`, reported once it returns), ``wait.rate`` (the
        rate-limit sleep), ``wait.queue`` (a put waiting for room in its
        connection's FIFO) and ``wait.lane`` (a queued write waiting
        behind the connection's earlier writes and for a fleet thread).
        A no-op unless the session is open and traced.
        """
        if seconds <= 0.0:
            return
        tel = self._telemetry
        if tel is None or not tel.tracing:
            return
        root = self._root_span
        tel.closed_span(name, seconds, parent=root.span_id if root is not None else -1)

    def _finish_trace(self, outcome: str) -> None:
        """Close the root ``session`` span and flush the trace file."""
        root = self._root_span
        if root is not None:
            root.set_attr("outcome", outcome)
            root.__exit__(None, None, None)
            self._root_span = None
        tel = self._telemetry
        if tel is not None and tel.tracing:
            tel.close()

    def admit(self, declared_bytes: int) -> float:
        """Admission control alone: quota pre-check + rate reservation.

        Returns the back-pressure delay (seconds) the caller must
        absorb before calling :meth:`write` — raising ``RateLimited``
        (tokens refunded) when that delay exceeds ``max_rate_delay``,
        ``QuotaExceeded`` when the declared size cannot fit.  Charges
        nothing; the per-batch ledger path stays authoritative.

        A step of its own so the server can run admission on the event
        loop and sleep the delay with ``asyncio.sleep`` — a
        rate-limited session must never park a fleet thread, or a
        handful of throttled clients would starve every tenant's writes
        of pool capacity.
        """
        self._require_open()
        tid = self.tenant.tenant_id
        self.tenant.ledger.check_admit(tid, declared_bytes)
        delay = self.tenant.bucket.reserve(declared_bytes)
        if delay > self.max_rate_delay:
            self.tenant.bucket.cancel(declared_bytes)
            self.tenant.inc_metric("service_rate_rejections")
            raise RateLimited(tid, delay)
        if delay > 0:
            self.tenant.inc_metric("service_rate_delay_ms", int(delay * 1000))
        return delay

    def write(self, path: str, data: bytes) -> str:
        """Ingest one in-memory file; returns its store id.

        The ingest step only: call :meth:`admit` first.  The ledger is
        charged batch by batch, and any ingest failure — quota crossed
        mid-stream included — aborts the whole session and repairs the
        store before re-raising.
        """
        dedup = self._require_open()
        file = BackupFile(file_id=self.store_id_for(path), data=data)
        try:
            dedup.ingest(file)
        except BaseException:
            self.abort()
            raise
        self._written[path] = file.file_id
        return file.file_id

    def commit(self) -> DedupStats:
        """Finalize the run and fold its metrics into the tenant's."""
        dedup = self._require_open()
        tel = self._telemetry
        try:
            if tel is not None and tel.tracing:
                with tel.span("commit"):
                    stats = dedup.finalize()
            else:
                stats = dedup.finalize()
        except BaseException:
            self.abort()
            raise
        self.stats = stats
        self._finish_trace("committed")
        tel = self._telemetry
        if tel is not None:
            self.tenant.merge_metrics(tel.registry)
        self.tenant.inc_metric("service_sessions_committed")
        self._state = "committed"
        self._dedup = None
        self.tenant.files.add(self._written)
        return stats

    def abort(self) -> RecoveryReport:
        """Discard the in-flight run and repair the tenant's keyspace.

        Safe after any failure point; the quarantine-based
        :func:`~repro.storage.recover.recover` pass removes whatever
        half-written state the abandoned deduplicator left behind, so
        a subsequent ``fsck`` is clean.  Idempotent-ish: aborting a
        session that is not open raises :class:`SessionClosed`.
        """
        if self._state != "open":
            raise SessionClosed(f"cannot abort a session in state {self._state!r}")
        self._state = "aborted"
        self._dedup = None
        self._finish_trace("aborted")
        try:
            self.recovery = recover(self.tenant.view)
        finally:
            self.tenant.files.drop()
            self.tenant.inc_metric("service_sessions_aborted")
        return self.recovery

    def close(self) -> None:
        """Idempotent terminal cleanup: aborts if still open."""
        if self._state == "open":
            self.abort()

    # ---- context manager: commit on success, abort on error -------------

    def __enter__(self) -> DedupSession:
        if self._state == "new":
            self.open()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._state != "open":
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def _require_open(self) -> Deduplicator:
        if self._state != "open" or self._dedup is None:
            raise SessionClosed(f"session is {self._state!r}, not open")
        return self._dedup
