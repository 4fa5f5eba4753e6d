"""Tenant-scoped dedup service: sessions, quotas, server, client.

The library's :class:`~repro.core.base.Deduplicator` is a single-user
batch object; this package turns it into a long-running multi-tenant
service without touching the algorithms:

* :mod:`~repro.service.tenancy` — tenants as namespace-prefixed views
  of one shared backend (:class:`TenantRegistry`);
* :mod:`~repro.service.quotas` — per-tenant byte/file quotas and
  token-bucket rate limits (:class:`TenantQuota`, :class:`TokenBucket`);
* :mod:`~repro.service.session` — the explicit open → (admit, write)* →
  commit/abort lifecycle with crash-safe abort (:class:`DedupSession`);
* :mod:`~repro.service.server` — the asyncio front end: JSON-lines
  ingest protocol plus live HTTP ``/metrics`` (:class:`DedupServer`),
  with one FIFO per connection over the fleet pool;
* :mod:`~repro.service.client` — the blocking protocol client
  (:class:`ServiceClient`).

See ``docs/SERVICE.md`` for the protocol and operational semantics.
"""

from .client import ServiceClient
from .quotas import (
    QuotaExceeded,
    QuotaLedger,
    RateLimited,
    ServiceError,
    TenantBusy,
    TenantQuota,
    TokenBucket,
)
from .server import DedupServer
from .session import DedupSession, SessionClosed, latest_files
from .tenancy import Tenant, TenantFiles, TenantRegistry, tenant_namespace_prefix

__all__ = [
    "DedupServer",
    "DedupSession",
    "QuotaExceeded",
    "QuotaLedger",
    "RateLimited",
    "ServiceClient",
    "ServiceError",
    "SessionClosed",
    "Tenant",
    "TenantBusy",
    "TenantFiles",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "latest_files",
    "tenant_namespace_prefix",
]
