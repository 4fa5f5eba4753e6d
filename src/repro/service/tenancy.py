"""Tenant isolation over one shared physical store.

A *tenant* is a named, fully-isolated keyspace inside one backend: all
four object-store namespaces (chunk/manifest/hook/file_manifest) plus
their quarantine shadows live under the tenant's namespace prefix
``tenant.<id>.``, materialised as a
:class:`~repro.storage.backend.PrefixedBackend` view.  Everything
above the backend — deduplicators, verification, GC, recovery — runs
unchanged against the view, which is the whole point: tenancy is a
storage-layer property, not something every algorithm needs to know
about.

The :class:`TenantRegistry` is the control plane: it owns the shared
backend, registers tenants with their quotas and rate limits, rebuilds
the usage ledger of returning tenants from their stored bytes, and
keeps the per-tenant metrics registries that the ``/metrics`` endpoint
renders with ``tenant`` labels.

**Thread safety.**  The registry's own table is locked, and the
explicitly-locked pieces of tenant state —
:class:`~repro.service.quotas.QuotaLedger` and
:class:`~repro.service.quotas.TokenBucket` — are safe to touch from
any thread.  ``Tenant.lock`` is an :class:`asyncio.Lock`: only the
server's event loop takes and releases it.  The per-tenant
:class:`~repro.obs.metrics.MetricsRegistry` is *not* internally locked
(by design: it is the same lock-free registry the dedup core uses
process-locally), so every shared-tenant-registry access
goes through the :meth:`Tenant.inc_metric` /
:meth:`Tenant.merge_metrics` / :meth:`Tenant.metrics_snapshot`
helpers, which serialise on ``Tenant.metrics_lock``.  Session worker
threads mutate through the helpers; ``/metrics`` renders from
snapshots, never from the live registry.
"""

from __future__ import annotations

import asyncio
import re
import threading
from collections.abc import Generator
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..storage import DiskModel, PrefixedBackend, StorageBackend, Store
from .quotas import QuotaLedger, TenantQuota, TokenBucket

__all__ = [
    "TENANT_PREFIX",
    "Tenant",
    "TenantFiles",
    "TenantRegistry",
    "latest_files",
    "split_store_id",
    "tenant_namespace_prefix",
]

#: Prefix under which every tenant's namespaces live on the shared
#: backend.  Contains a dot, so it can never collide with the four
#: store namespaces or with ``quarantine.*`` shadows of a untenanted
#: store.
TENANT_PREFIX = "tenant."

#: Tenant ids are DNS-label-ish: they appear in namespace names (and
#: thus directory names under a DirectoryBackend) and in Prometheus
#: label values, so keep them boring.
_TENANT_ID = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")


def tenant_namespace_prefix(tenant_id: str) -> str:
    """The backend namespace prefix of one tenant (``tenant.<id>.``)."""
    return f"{TENANT_PREFIX}{tenant_id}."


def validate_tenant_id(tenant_id: str) -> str:
    """Return ``tenant_id`` or raise ``ValueError`` for unusable ids."""
    if not _TENANT_ID.match(tenant_id):
        raise ValueError(
            f"invalid tenant id {tenant_id!r}: need lowercase "
            "[a-z0-9][a-z0-9_-]{0,63}"
        )
    return tenant_id


#: Store-side file ids are ``g<6-digit generation>/<client path>``.
_GEN_RE = re.compile(r"^g(\d{6})/(.+)$", re.DOTALL)


def split_store_id(store_id: str) -> tuple[int, str]:
    """``g000002/a/b.img`` → ``(2, "a/b.img")``.

    Ids without a generation prefix (stores written by the plain CLI,
    not the service) map to generation ``-1`` under their full id.
    """
    m = _GEN_RE.match(store_id)
    if m is None:
        return (-1, store_id)
    return (int(m.group(1)), m.group(2))


def latest_files(backend: StorageBackend) -> dict[str, str]:
    """Map each client path to its newest generation's store id."""
    latest: dict[str, tuple[int, str]] = {}
    for store_id in Store(backend).file_manifests.list_ids():
        gen, path = split_store_id(store_id)
        if path not in latest or gen > latest[path][0]:
            latest[path] = (gen, store_id)
    return {path: store_id for path, (_, store_id) in sorted(latest.items())}


class TenantFiles:
    """One tenant view's client path → newest store id, listed once.

    :func:`latest_files` reads every FileManifest of the tenant, so its
    result is kept: the first :meth:`latest` lists, later ones answer
    from memory — ``list``, ``get`` and every session's ``open``, which
    numbers its generation from it.  A commit :meth:`add`\\ s the files
    it wrote, an abort :meth:`drop`\\ s the listing (recovery may have
    removed recipes): reads see committed pushes.  Nothing is persisted.

    Thread-safe.  The listing runs under the lock, so a :meth:`drop`
    or :meth:`add` that races it waits and then clears or amends its
    result; a stale listing is never kept.
    """

    def __init__(self, view: StorageBackend) -> None:
        self._view = view
        self._lock = threading.Lock()
        self._latest: dict[str, str] | None = None

    def latest(self) -> dict[str, str]:
        """Each client path's newest store id (shared: do not mutate)."""
        with self._lock:
            if self._latest is None:
                self._latest = latest_files(self._view)
            return self._latest

    def drop(self) -> None:
        """Forget the listing; the next :meth:`latest` reads the store."""
        with self._lock:
            self._latest = None

    def add(self, written: dict[str, str]) -> None:
        """Fold a committed push's ``path → store id`` into a kept listing
        (a new dict: readers may be iterating the one handed out)."""
        with self._lock:
            if self._latest is not None:
                self._latest = dict(sorted((self._latest | written).items()))

    def iter_restore(self, path: str) -> tuple[int, Generator[bytes, None, None]]:
        """The newest generation of ``path``: its size and its bytes in
        pieces; ``KeyError`` (here, not on the first piece) if unknown.

        Reads only the store — no deduplicator and no session, so a
        ``get`` never waits for the tenant's session lock.
        """
        try:
            store_id = self.latest()[path]
        except KeyError:
            raise KeyError(f"no file {path!r} in store") from None
        store = Store(self._view)
        manifest = store.file_manifests.get(store_id)
        return manifest.total_size, manifest.iter_restore(store.chunks)

    def restore(self, path: str) -> bytes:
        """The newest generation of ``path``, whole; ``KeyError`` if unknown."""
        return b"".join(self.iter_restore(path)[1])


@dataclass
class Tenant:
    """One tenant's control-plane state.

    ``lock`` serialises the server's sessions: the store layout
    (container ids derived from file ids, warm-started RAM indexes)
    assumes one writer per tenant keyspace at a time, so opens of one
    tenant queue on this lock in arrival order while sessions of
    *different* tenants proceed in parallel.  The server's event loop
    takes it before a session opens and releases it once the session
    has committed or aborted; nothing else touches it.
    """

    tenant_id: str
    view: StorageBackend
    ledger: QuotaLedger
    bucket: TokenBucket
    #: Kept path index: read by ``list``/``get`` and by every ``open``.
    files: TenantFiles
    #: Live service-side metrics for this tenant (ingest counters,
    #: session counts) plus every committed session's dedup registry
    #: merged in — what ``/metrics`` renders under ``tenant="<id>"``.
    #: The registry itself is lock-free; never touch it directly from
    #: concurrent code — use the locked helpers below.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Guards :attr:`metrics` (fleet threads increment while the
    #: event loop renders ``/metrics``).
    metrics_lock: threading.Lock = field(default_factory=threading.Lock)
    #: Monotonic per-tenant session counter (session id suffix).
    sessions_opened: int = 0

    def inc_metric(self, name: str, n: int = 1) -> None:
        """Atomically increment one of this tenant's counters."""
        with self.metrics_lock:
            self.metrics.counter(name).inc(n)

    def merge_metrics(self, other: MetricsRegistry) -> None:
        """Atomically fold a (private, unshared) registry into ours."""
        with self.metrics_lock:
            self.metrics.merge(other)

    def metrics_snapshot(self) -> MetricsRegistry:
        """A consistent point-in-time copy, safe to read lock-free."""
        snap = MetricsRegistry()
        with self.metrics_lock:
            snap.merge(self.metrics)
        return snap


class TenantRegistry:
    """Registry of tenants sharing one physical backend.

    Parameters
    ----------
    backend:
        The shared physical store.  Tenants only ever see
        :class:`PrefixedBackend` views of it.
    default_quota:
        Quota applied to tenants registered without an explicit one.
    default_rate_bytes:
        Token-bucket rate (bytes/s) for tenants registered without an
        explicit one; 0 disables rate limiting.
    """

    def __init__(
        self,
        backend: StorageBackend,
        default_quota: TenantQuota | None = None,
        default_rate_bytes: float = 0.0,
        default_burst_bytes: float | None = None,
    ) -> None:
        self.backend = backend
        self.default_quota = default_quota or TenantQuota()
        self.default_rate_bytes = default_rate_bytes
        self.default_burst_bytes = default_burst_bytes
        self._tenants: dict[str, Tenant] = {}
        self._files: dict[str, TenantFiles] = {}
        self._lock = threading.Lock()

    def view(self, tenant_id: str) -> PrefixedBackend:
        """A fresh storage view of one tenant's keyspace."""
        return PrefixedBackend(self.backend, tenant_namespace_prefix(tenant_id))

    def files(self, tenant_id: str) -> TenantFiles:
        """The path index of one tenant's keyspace.

        Reading needs no registration (a restarted service restores
        tenants nobody has opened a session for yet); a tenant
        registered later gets the same object as its ``files``.
        """
        with self._lock:
            files = self._files.get(tenant_id)
            if files is None:
                files = self._files[tenant_id] = TenantFiles(self.view(tenant_id))
            return files

    def register(
        self,
        tenant_id: str,
        quota: TenantQuota | None = None,
        rate_bytes: float | None = None,
        burst_bytes: float | None = None,
    ) -> Tenant:
        """Register (or fetch) a tenant; idempotent for existing ids.

        Limits are **first-registration-sticky**: the quota and rate of
        a tenant are fixed by whoever registers it first (explicitly or
        from the defaults) and live until the process restarts.  A
        later ``register`` passing *different* explicit limits raises
        ``ValueError`` rather than silently keeping the old ones —
        with no authentication on the protocol, silently ignoring the
        arguments would let operators believe a limit change took
        effect when it did not.  Re-registering with the same limits
        (or with none) is the idempotent fetch path.

        A returning tenant — one whose prefix already holds objects on
        the backend — starts its quota ledger from the bytes its
        keyspace currently stores: input-byte history is not
        recoverable from a deduplicated store, so the stored footprint
        is the honest (dedup-favouring) lower bound, and it makes a
        service restart strictly *more* permissive than the live
        accounting, never less.  That store walk runs outside the
        registry's lock, so it holds up no other tenant's lookups, and
        the server runs a first registration on its fleet, not on the
        event loop.
        """
        validate_tenant_id(tenant_id)
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            view = self.view(tenant_id)
            stored = sum(view.bytes_stored(ns) for ns in view.namespaces())
            files = Store(view).usage(DiskModel.FILE_MANIFEST).objects
            new = Tenant(
                tenant_id=tenant_id,
                view=view,
                ledger=QuotaLedger(
                    quota if quota is not None else self.default_quota,
                    bytes_used=stored,
                    files_used=files,
                ),
                bucket=TokenBucket(
                    rate_bytes if rate_bytes is not None else self.default_rate_bytes,
                    burst_bytes if burst_bytes is not None else self.default_burst_bytes,
                ),
                files=self.files(tenant_id),
            )
            with self._lock:  # a racing first registration may have won
                tenant = self._tenants.setdefault(tenant_id, new)
        self._check_limit_conflict(tenant, quota, rate_bytes, burst_bytes)
        return tenant

    @staticmethod
    def _check_limit_conflict(
        tenant: Tenant,
        quota: TenantQuota | None,
        rate_bytes: float | None,
        burst_bytes: float | None,
    ) -> None:
        """Raise ``ValueError`` if explicit args differ from the registered ones."""
        conflicts: list[str] = []
        if quota is not None and quota != tenant.ledger.quota:
            q = tenant.ledger.quota
            conflicts.append(
                f"quota is fixed at max_bytes={q.max_bytes}/"
                f"max_files={q.max_files}, got "
                f"max_bytes={quota.max_bytes}/max_files={quota.max_files}"
            )
        if rate_bytes is not None and rate_bytes != tenant.bucket.rate:
            conflicts.append(
                f"rate_bytes is fixed at {tenant.bucket.rate}, got {rate_bytes}"
            )
        if burst_bytes is not None and burst_bytes != tenant.bucket.burst:
            conflicts.append(
                f"burst_bytes is fixed at {tenant.bucket.burst}, got {burst_bytes}"
            )
        if conflicts:
            raise ValueError(
                f"tenant {tenant.tenant_id!r} limits are first-registration-"
                f"sticky: " + "; ".join(conflicts)
            )

    def get(self, tenant_id: str) -> Tenant:
        """A registered tenant; raises ``KeyError`` for unknown ids."""
        with self._lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise KeyError(f"tenant {tenant_id!r} not registered") from None

    def registered(self) -> list[str]:
        """Ids of explicitly registered tenants (sorted)."""
        with self._lock:
            return sorted(self._tenants)

    def discover(self) -> list[str]:
        """Tenant ids present on the backend (registered or not).

        Walks the physical namespaces for ``tenant.<id>.*`` prefixes —
        how a restarted service finds the tenants a previous process
        served.
        """
        found: set[str] = set()
        for ns in self.backend.namespaces():
            if not ns.startswith(TENANT_PREFIX):
                continue
            rest = ns[len(TENANT_PREFIX):]
            tenant_id = rest.split(".", 1)[0]
            if _TENANT_ID.match(tenant_id):
                found.add(tenant_id)
        return sorted(found | set(self.registered()))

    def active_sessions(self) -> int:
        """How many tenants have a session open right now.

        The server holds a tenant's session lock from before its
        session opens until the session has committed or aborted, so
        the held-lock count *is* the live session count — the figure
        the server's heartbeat log line reports.  (``locked()`` only
        reads a flag, so the fleet thread that logs a heartbeat may
        call this.)
        """
        with self._lock:
            return sum(1 for t in self._tenants.values() if t.lock.locked())

    def metrics_by_tenant(self) -> list[tuple[str, MetricsRegistry]]:
        """(tenant_id, registry snapshot) pairs for ``/metrics``.

        Snapshots, not live registries: fleet threads keep
        mutating tenant metrics while the exposition renders, so each
        tenant's state is copied under its ``metrics_lock`` first.
        """
        with self._lock:
            tenants = sorted(self._tenants.items())
        return [(tid, t.metrics_snapshot()) for tid, t in tenants]
