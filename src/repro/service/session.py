"""DedupSession: one tenant push with an explicit, crash-safe lifecycle.

The library API (:class:`~repro.core.base.Deduplicator`) is a batch
object: construct, ``process()`` a corpus, read the stats.  A service
needs the same machinery with an explicit lifecycle it can drive from a
network protocol and abandon safely mid-way::

    open  ──►  write(path, data)*  ──►  commit  ──►  (stats)
                      │
                      └──────────►  abort  ──►  (store repaired)

:class:`DedupSession` provides exactly that.  ``open()`` takes the
tenant's session lock (one writer per tenant keyspace at a time),
builds a deduplicator over the tenant's
:class:`~repro.storage.backend.PrefixedBackend` view and
``warm_start()``\\ s it so this push deduplicates against everything the
tenant stored before — the incremental re-push path: unchanged files
cost (almost) nothing, only deltas pay.

Every ``write()`` runs under admission control: the tenant's
:class:`~repro.service.quotas.QuotaLedger` is checked optimistically
before any byte moves and charged authoritatively per chunk batch by
the session's :class:`~repro.core.protocols.IngestObserver`, and the
tenant's token bucket meters bytes/second — back-pressure (a bounded
sleep) while the debt is payable, :class:`~repro.service.quotas.RateLimited`
with a ``retry_after`` once it is not.

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

import time
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

from ..core.base import Deduplicator, DedupStats
from ..core.config import DedupConfig
from ..obs.sinks import JsonlTraceSink
from ..obs.telemetry import HeartbeatEvent, Telemetry
from ..obs.trace import Span
from ..registry import resolve
from ..storage.recover import RecoveryReport, recover
from ..workloads.machine import BackupFile
from .quotas import RateLimited, TenantBusy
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
        Longest back-pressure sleep a single ``write`` will absorb
        before refusing with :class:`RateLimited`.
    open_wait:
        Longest :meth:`open` waits for the tenant's session lock
        before refusing with :class:`TenantBusy`.  The wait is always
        bounded — an untimed lock acquire on a fleet thread is the
        PR 6 pool-starvation deadlock (and DDC102 bans it).
    sleep:
        Injectable sleep (tests pass a recorder) used only by the
        library's blocking :meth:`write` path.  The server never
        sleeps on a worker thread: it calls :meth:`admit` on the
        event loop and absorbs the delay with ``asyncio.sleep``
        before dispatching the pre-admitted write.
    trace_dir:
        When set, :meth:`open` writes the session's spans to
        ``trace-<session id>.jsonl`` in this directory — created only
        once the lock is held and the warm start has succeeded, so a
        refused or failed open leaves no file.  The session's root
        ``session`` span encloses the dedup core's ingest spans, all
        stamped with the session's trace context.
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
        open_wait: float = 300.0,
        sleep: Callable[[float], None] = time.sleep,
        trace_dir: str | Path | None = None,
        trace_id: str = "",
        parent_ref: str = "",
        heartbeat: Callable[[HeartbeatEvent], None] | None = None,
    ) -> None:
        self.tenant = tenant
        self.algorithm = algorithm
        self.config = config or DedupConfig()
        self.max_rate_delay = max_rate_delay
        self.open_wait = open_wait
        self._sleep = sleep
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

    def open(self, locked: bool = False) -> DedupSession:
        """Acquire the tenant's session lock and warm-start a dedup run.

        Waits (up to ``open_wait`` seconds, then :class:`TenantBusy`)
        while another session of the *same* tenant is open — sessions
        of different tenants proceed concurrently; the store layout
        assumes one writer per keyspace at a time.  The wait is
        deliberately never unbounded: the library ``open()`` runs on
        whatever thread calls it, and an untimed lock acquire on a
        fleet thread is exactly the pool-starvation deadlock the PR 6
        review caught (machine-checked as DDC102 now).

        ``locked=True`` means the caller already holds ``tenant.lock``
        and this session takes ownership of it (released on
        commit/abort, or here on failure).  The server uses this: it
        waits for the lock on the event loop so a blocked ``open``
        never occupies a fleet thread, then runs the (lock-free) heavy
        part — warm start — on the pool.
        """
        if self._state != "new":
            if locked:  # ownership transferred on entry; give it back
                self.tenant.lock.release()
            raise SessionClosed(f"cannot open a session in state {self._state!r}")
        if not locked and not self.tenant.lock.acquire(timeout=self.open_wait):
            raise TenantBusy(self.tenant.tenant_id, self.open_wait)
        try:
            self.tenant.sessions_opened += 1
            self.session_id = (
                f"{self.tenant.tenant_id}-{self.tenant.sessions_opened:04d}"
            )
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
        except BaseException:
            self.tenant.lock.release()
            raise
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
        session root), so the server's event loop can report the waits
        it absorbs on the session's behalf — ``wait.tenant_lock``
        (reported once :meth:`open` returns), ``wait.rate``,
        ``wait.queue``, ``wait.lane`` — while the lane thread owns the
        span stack.  A no-op unless the session is open and traced.
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
        absorb before streaming the payload — raising ``RateLimited``
        (tokens refunded) when that delay exceeds ``max_rate_delay``,
        ``QuotaExceeded`` when the declared size cannot fit.  Charges
        nothing; the per-batch ledger path stays authoritative.

        Split from :meth:`write` so the server can run admission on
        the event loop and sleep the delay with ``asyncio.sleep`` —
        a rate-limited session must never park a fleet thread, or a
        handful of throttled clients would starve every tenant's lane
        tasks of pool capacity.
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

    def write(self, path: str, data: bytes, preadmitted: bool = False) -> str:
        """Ingest one in-memory file; returns its store id.

        Admission order: quota pre-check (no charge) → token-bucket
        reservation (sleep ≤ ``max_rate_delay``, else ``RateLimited``
        with the tokens refunded) → ingest, with the ledger charged
        batch-by-batch.  Any ingest failure — quota crossed mid-stream
        included — aborts the whole session and repairs the store
        before re-raising.

        ``preadmitted=True`` skips the admission step: the caller
        already ran :meth:`admit` and slept the returned delay itself.
        """
        file = BackupFile(file_id=self.store_id_for(path), data=data)
        return self._ingest(path, len(data), file, preadmitted)

    def write_stream(
        self,
        path: str,
        source: Callable[[], BinaryIO],
        size_hint: int,
        preadmitted: bool = False,
    ) -> str:
        """Ingest a source-backed file (content streamed on demand).

        ``size_hint`` is the quota admission *claim*; if the stream
        turns out longer, the per-batch ledger charge is authoritative
        and cuts the ingest off mid-file (session aborted, store
        repaired) the moment the quota is actually crossed.
        """
        file = BackupFile(file_id=self.store_id_for(path), source=source, size_hint=size_hint)
        return self._ingest(path, size_hint, file, preadmitted)

    def _ingest(
        self, path: str, declared_bytes: int, file: BackupFile, preadmitted: bool
    ) -> str:
        dedup = self._require_open()
        if not preadmitted:
            delay = self.admit(declared_bytes)
            if delay > 0:
                self._sleep(delay)
        try:
            dedup.ingest(file)
        except BaseException:
            self.abort()
            raise
        self._written[path] = file.file_id
        return file.file_id

    def commit(self) -> DedupStats:
        """Finalize the run, fold its metrics into the tenant's, unlock."""
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
        self.tenant.lock.release()
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
            self.tenant.lock.release()
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
