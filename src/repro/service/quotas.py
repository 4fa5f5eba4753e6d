"""Per-tenant admission control: quotas, token-bucket rate limits.

Two independent mechanisms guard a shared store against one tenant
monopolising it:

* :class:`TenantQuota` — a hard ceiling on cumulative ingested bytes
  and files.  Enforced twice: optimistically at admission time (a file
  whose declared size cannot fit is rejected before any byte moves)
  and authoritatively *mid-stream* by the session's
  :class:`~repro.core.protocols.IngestObserver` — a lying client whose
  stream outgrows its declared size is cut off at the first chunk batch
  that crosses the line, before those bytes reach the dedup core.
* :class:`TokenBucket` — a classic token-bucket rate limiter in
  bytes/second.  The service applies it as *back-pressure first,
  rejection second*: a reservation that can be honoured within
  ``max_delay`` seconds slows the client's socket reads (the bucket
  tells the server how long to sleep before accepting the payload);
  one that cannot is refused with a 429-style ``RateLimited`` carrying
  ``retry_after``, and the tokens are returned.

Both are plain deterministic objects with an injectable clock, so the
edge cases (quota crossed exactly at a batch boundary, bucket drained
to the burst floor) are unit-testable without wall-clock sleeps.
Thread safety: both classes are locked internally — session worker
threads and the asyncio front end touch them concurrently.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass
from time import monotonic

__all__ = [
    "QuotaExceeded",
    "QuotaLedger",
    "RateLimited",
    "ServiceError",
    "TenantBusy",
    "TenantQuota",
    "TokenBucket",
    "UNLIMITED",
]

#: Sentinel for "no limit" on a quota dimension.
UNLIMITED = 0


class ServiceError(Exception):
    """Base class for service-layer refusals (carries a wire code)."""

    #: Stable machine-readable error code used on the wire protocol.
    code = "service_error"


class QuotaExceeded(ServiceError):
    """The tenant's byte or file quota cannot admit this ingest."""

    code = "quota_exceeded"

    def __init__(self, tenant_id: str, detail: str) -> None:
        super().__init__(f"tenant {tenant_id!r}: {detail}")
        self.tenant_id = tenant_id
        self.detail = detail


class RateLimited(ServiceError):
    """The rate limiter cannot admit the payload within ``max_delay``."""

    code = "rate_limited"

    def __init__(self, tenant_id: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant_id!r} rate limited; retry after {retry_after:.3f}s"
        )
        self.tenant_id = tenant_id
        self.retry_after = retry_after


class TenantBusy(ServiceError):
    """Another session holds the tenant's lock; retry the ``open`` later.

    Raised by the server instead of queueing an ``open`` indefinitely:
    an ``open`` waits for the tenant's lock on the event loop, in
    arrival order, never on a fleet thread (that is how thread-pool
    starvation deadlocks start), and past ``open_wait`` the service
    refuses with a 429-style retry hint.
    """

    code = "busy"

    def __init__(self, tenant_id: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant_id!r} has an active session; "
            f"retry after {retry_after:.3f}s"
        )
        self.tenant_id = tenant_id
        self.retry_after = retry_after


@dataclass(frozen=True)
class TenantQuota:
    """Hard per-tenant ceilings (0 = unlimited on that dimension).

    ``max_bytes`` bounds cumulative *input* bytes admitted for the
    tenant — the logical, pre-dedup size, because that is what the
    tenant asked the service to do work on; dedup savings belong to the
    operator, not the quota.  ``max_files`` bounds cumulative files.
    """

    max_bytes: int = UNLIMITED
    max_files: int = UNLIMITED

    def __post_init__(self) -> None:
        if self.max_bytes < 0 or self.max_files < 0:
            raise ValueError("quota limits must be >= 0 (0 = unlimited)")

    @property
    def unlimited(self) -> bool:
        """Whether neither dimension is bounded."""
        return self.max_bytes == UNLIMITED and self.max_files == UNLIMITED


class QuotaLedger:
    """Thread-safe running usage of one tenant against its quota.

    The ledger is the *authoritative* accumulator: sessions charge it
    batch-by-batch through their ingest observer, so the recorded usage
    is exactly the bytes that reached the dedup core (an aborted file's
    partial batches stay charged — the work was done).
    """

    def __init__(
        self, quota: TenantQuota, bytes_used: int = 0, files_used: int = 0
    ) -> None:
        self.quota = quota
        self._lock = threading.Lock()
        self._bytes = bytes_used
        self._files = files_used

    @property
    def bytes_used(self) -> int:
        """Cumulative input bytes charged so far."""
        return self._bytes

    @property
    def files_used(self) -> int:
        """Cumulative files charged so far."""
        return self._files

    def check_admit(self, tenant_id: str, declared_bytes: int) -> None:
        """Optimistic admission check for one file (raises, charges nothing).

        ``declared_bytes`` is the client's claimed size; the mid-stream
        :meth:`charge_bytes` path remains authoritative for liars.
        """
        q = self.quota
        with self._lock:
            if q.max_files and self._files + 1 > q.max_files:
                raise QuotaExceeded(
                    tenant_id,
                    f"file quota {q.max_files} exhausted ({self._files} used)",
                )
            if q.max_bytes and self._bytes + declared_bytes > q.max_bytes:
                raise QuotaExceeded(
                    tenant_id,
                    f"byte quota {q.max_bytes} cannot admit {declared_bytes} more "
                    f"bytes ({self._bytes} used)",
                )

    def charge_bytes(self, tenant_id: str, nbytes: int) -> None:
        """Charge ``nbytes`` of admitted input; raises once over quota.

        Called per chunk batch *before* the batch reaches the dedup
        core, so the raise aborts the ingest with none of the
        over-quota bytes stored.
        """
        q = self.quota
        with self._lock:
            if q.max_bytes and self._bytes + nbytes > q.max_bytes:
                raise QuotaExceeded(
                    tenant_id,
                    f"byte quota {q.max_bytes} crossed mid-stream "
                    f"({self._bytes} used, batch of {nbytes})",
                )
            self._bytes += nbytes

    def charge_file(self, tenant_id: str) -> None:
        """Charge one file (called when a file begins ingesting)."""
        q = self.quota
        with self._lock:
            if q.max_files and self._files + 1 > q.max_files:
                raise QuotaExceeded(
                    tenant_id, f"file quota {q.max_files} exhausted"
                )
            self._files += 1

    def snapshot(self) -> dict[str, int]:
        """Point-in-time usage (for stats endpoints)."""
        with self._lock:
            return {
                "bytes_used": self._bytes,
                "files_used": self._files,
                "max_bytes": self.quota.max_bytes,
                "max_files": self.quota.max_files,
            }


class TokenBucket:
    """Token-bucket rate limiter in bytes/second with injectable clock.

    The bucket holds at most ``burst`` tokens and refills at ``rate``
    tokens/second.  :meth:`reserve` *always* grants the reservation and
    returns how long the caller must wait before proceeding (0.0 when
    tokens were available); callers that find the delay unacceptable
    give the tokens back with :meth:`cancel`.  Splitting grant from
    policy keeps the bucket deterministic and lets the server choose
    "sleep" (back-pressure) vs "reject with retry-after" per request.

    ``rate == 0`` disables limiting (every reserve returns 0.0).
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.burst = float(burst) if burst is not None else max(rate, 1.0)
        if rate and self.burst <= 0:
            raise ValueError(f"burst must be > 0, got {self.burst}")
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._updated = clock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def reserve(self, n: float) -> float:
        """Take ``n`` tokens; return seconds to wait before proceeding.

        The debt may exceed the burst size (a single file larger than
        the burst is admitted — it just waits proportionally longer);
        the bucket goes negative and subsequent reservations queue
        behind it, which is what serialises a tenant's sessions to the
        configured rate.
        """
        if self.rate == 0:
            return 0.0
        with self._lock:
            now = self._clock()
            self._refill(now)
            self._tokens -= n
            if self._tokens >= 0:
                return 0.0
            return -self._tokens / self.rate

    def cancel(self, n: float) -> None:
        """Return ``n`` previously reserved tokens (rejected request)."""
        if self.rate == 0:
            return
        with self._lock:
            now = self._clock()
            self._refill(now)
            self._tokens = min(self.burst, self._tokens + n)

    @property
    def tokens(self) -> float:
        """Current token level (may be negative under debt)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens
