"""Fault injection and retry policies for storage backends.

The paper's prototype assumes a disk that never fails; a production
store cannot.  This module supplies the two halves of the failure
story:

* :class:`FaultInjectingBackend` — a wrapper that injects a
  **deterministic, seedable** schedule of failures into any backend:
  hard IO errors, retryable transient errors, torn writes (a prefix of
  the payload lands, then the "process dies"), silent bit flips, and
  bare crash points.  Tests use explicit :class:`FaultSpec` schedules
  to place a failure at an exact operation; the CLI's chaos mode uses
  the seeded ``transient_rate`` to sprinkle retryable errors over a
  whole run.
* :class:`RetryingBackend` + :class:`RetryPolicy` — the production
  response to *transient* failures: bounded retries with exponential
  backoff, threaded under every store (and therefore under the whole
  ingest hot path) simply by wrapping the backend.  Permanent errors
  (:class:`BackendError`) and simulated deaths (:class:`CrashPoint`)
  are never retried.

Both wrappers satisfy the full :class:`StorageBackend` contract, so
they compose: ``RetryingBackend(FaultInjectingBackend(DirectoryBackend
(...)))`` is a crash-consistent store under test-controlled weather.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from ..obs.telemetry import note_anomaly
from .backend import StorageBackend

__all__ = [
    "BackendError",
    "TransientBackendError",
    "CrashPoint",
    "FaultSpec",
    "FaultInjectingBackend",
    "RetryPolicy",
    "RetryingBackend",
]

T = TypeVar("T")


class BackendError(Exception):
    """Permanent storage failure — retrying cannot help."""


class TransientBackendError(BackendError):
    """Retryable storage failure (lease timeout, throttling, EINTR...)."""


class CrashPoint(Exception):
    """Simulated process death injected at a kill-point.

    Crash-recovery tests catch this at the very top of a run, then
    reopen the store in a fresh backend and run
    :func:`repro.storage.recover.recover` — exactly what a restarted
    process would do.  :class:`RetryingBackend` never catches it.
    """


#: Fault kinds a :class:`FaultSpec` can inject.
#:
#: * ``io_error`` — raise :class:`BackendError` (permanent, no side effect)
#: * ``transient`` — raise :class:`TransientBackendError` (no side effect)
#: * ``torn`` — on put, store a strict prefix of the payload, then crash;
#:   on get, return a truncated copy
#: * ``bit_flip`` — silently corrupt one bit of the payload
#: * ``crash`` — raise :class:`CrashPoint` before the operation runs
#: * ``crash_after`` — run the operation, then raise :class:`CrashPoint`
FAULT_KINDS = ("io_error", "transient", "torn", "bit_flip", "crash", "crash_after")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire on the ``at``-th matching operation.

    ``op`` (``"put"``/``"get"``/``"delete"``) and ``namespace`` filter
    which operations count as matching; ``None`` matches any.  Counting
    is 0-based and per-spec, so two specs with the same filter fire
    independently.  Each spec fires exactly once.
    """

    kind: str
    op: str | None = None
    namespace: str | None = None
    at: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.op not in (None, "put", "get", "delete"):
            raise ValueError(f"op must be put/get/delete/None, got {self.op!r}")
        if self.at < 0:
            raise ValueError(f"at must be >= 0, got {self.at}")

    def matches(self, op: str, namespace: str) -> bool:
        """Whether an operation counts toward this spec's trigger."""
        return (self.op is None or self.op == op) and (
            self.namespace is None or self.namespace == namespace
        )


class FaultInjectingBackend(StorageBackend):
    """Backend wrapper injecting a deterministic schedule of failures.

    Two injection sources, both reproducible:

    * ``schedule`` — explicit :class:`FaultSpec` kill-points, matched
      by a per-spec operation counter (tests pin a failure to "the 7th
      manifest put").
    * ``transient_rate`` — a seeded Bernoulli coin flipped on every
      put/get/delete that no spec claimed, raising
      :class:`TransientBackendError` (the CLI chaos mode; a fixed seed
      reproduces the exact error sequence).

    ``faults_injected`` counts fired faults by kind so tests and smoke
    jobs can assert the weather actually happened.
    """

    def __init__(
        self,
        inner: StorageBackend,
        schedule: tuple[FaultSpec, ...] | list[FaultSpec] = (),
        seed: int = 0,
        transient_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= transient_rate < 1.0:
            raise ValueError(f"transient_rate must be in [0, 1), got {transient_rate}")
        self.inner = inner
        self.schedule = tuple(schedule)
        self.transient_rate = transient_rate
        self._seen = [0] * len(self.schedule)
        self._fired = [False] * len(self.schedule)
        self._rng = random.Random(seed)
        self.faults_injected: Counter[str] = Counter()

    # ---- fault arming ----------------------------------------------------

    def _next_fault(self, op: str, namespace: str) -> FaultSpec | None:
        hit: FaultSpec | None = None
        for i, spec in enumerate(self.schedule):
            if not spec.matches(op, namespace):
                continue
            if hit is None and not self._fired[i] and self._seen[i] == spec.at:
                self._fired[i] = True
                hit = spec
            self._seen[i] += 1
        if hit is None and self.transient_rate and self._rng.random() < self.transient_rate:
            hit = FaultSpec("transient", op=op)
        if hit is not None:
            self.faults_injected[hit.kind] += 1
        return hit

    def _flip_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        corrupted = bytearray(data)
        corrupted[self._rng.randrange(len(data))] ^= 1 << self._rng.randrange(8)
        return bytes(corrupted)

    # ---- the backend contract, with weather ------------------------------

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        spec = self._next_fault("put", namespace)
        if spec is None:
            self.inner.put(namespace, key, data)
            return
        where = f"put {namespace}/{key.hex()[:12]}"
        if spec.kind == "io_error":
            raise BackendError(f"injected io_error on {where}")
        if spec.kind == "transient":
            raise TransientBackendError(f"injected transient error on {where}")
        if spec.kind == "torn":
            keep = self._rng.randrange(len(data)) if data else 0
            self.inner.put(namespace, key, data[:keep])
            raise CrashPoint(f"torn write on {where} ({keep}/{len(data)} B landed)")
        if spec.kind == "bit_flip":
            self.inner.put(namespace, key, self._flip_bit(data))
            return
        if spec.kind == "crash":
            raise CrashPoint(f"crash before {where}")
        self.inner.put(namespace, key, data)
        raise CrashPoint(f"crash after {where}")

    def get(self, namespace: str, key: bytes) -> bytes:
        spec = self._next_fault("get", namespace)
        if spec is None:
            return self.inner.get(namespace, key)
        where = f"get {namespace}/{key.hex()[:12]}"
        if spec.kind == "io_error":
            raise BackendError(f"injected io_error on {where}")
        if spec.kind == "transient":
            raise TransientBackendError(f"injected transient error on {where}")
        if spec.kind == "crash":
            raise CrashPoint(f"crash before {where}")
        data = self.inner.get(namespace, key)
        if spec.kind == "torn":
            return data[: self._rng.randrange(len(data))] if data else data
        if spec.kind == "bit_flip":
            return self._flip_bit(data)
        raise CrashPoint(f"crash after {where}")

    def delete(self, namespace: str, key: bytes) -> bool:
        spec = self._next_fault("delete", namespace)
        if spec is not None:
            where = f"delete {namespace}/{key.hex()[:12]}"
            if spec.kind == "io_error":
                raise BackendError(f"injected io_error on {where}")
            if spec.kind == "transient":
                raise TransientBackendError(f"injected transient error on {where}")
            if spec.kind == "crash":
                raise CrashPoint(f"crash before {where}")
            if spec.kind == "crash_after":
                self.inner.delete(namespace, key)
                raise CrashPoint(f"crash after {where}")
            # torn / bit_flip make no sense for delete; fall through
        return self.inner.delete(namespace, key)

    # ``get_range`` and ``object_size`` are deliberately the inherited
    # defaults: they reach the store through :meth:`get` above, so an
    # extent read meets the same fault plan, at the same operation
    # index, as the whole-object read it replaced.

    # ---- plain delegation (never injected) -------------------------------

    def exists(self, namespace: str, key: bytes) -> bool:
        return self.inner.exists(namespace, key)

    def keys(self, namespace: str) -> list[bytes]:
        return self.inner.keys(namespace)

    def object_count(self, namespace: str) -> int:
        return self.inner.object_count(namespace)

    def bytes_stored(self, namespace: str) -> int:
        return self.inner.bytes_stored(namespace)

    def namespaces(self) -> list[str]:
        return self.inner.namespaces()

    def purge_incomplete(self, prefix: str = "") -> int:
        return self.inner.purge_incomplete(prefix)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient backend errors.

    ``attempts`` counts every try including the first; the delay before
    retry *i* (0-based) is ``base_delay * multiplier**i``, capped at
    ``max_delay``.  Deterministic — no jitter — so metered runs stay
    reproducible.
    """

    attempts: int = 4
    base_delay: float = 0.005
    multiplier: float = 2.0
    max_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1.0:
            raise ValueError("delays must be >= 0 and multiplier >= 1")

    def delay(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        return min(self.max_delay, self.base_delay * self.multiplier**retry_index)


class RetryingBackend(StorageBackend):
    """Backend wrapper retrying :class:`TransientBackendError`.

    Every operation is retried up to ``policy.attempts`` times with the
    policy's backoff.  Exhausting the budget re-raises the last error
    and reports through the telemetry anomaly channel
    (``anomaly.backend.retry_exhausted``); successful retries are
    counted on :attr:`retries`.  Permanent :class:`BackendError`,
    :class:`CrashPoint` and ordinary ``KeyError`` pass straight
    through.
    """

    def __init__(
        self,
        inner: StorageBackend,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self._sleep = sleep
        self.retries = 0  # transient errors absorbed by a later success
        self.giveups = 0  # operations that exhausted the attempt budget

    def _call(self, fn: Callable[[], T]) -> T:
        last: TransientBackendError | None = None
        for attempt in range(self.policy.attempts):
            try:
                return fn()
            except TransientBackendError as e:
                last = e
                if attempt + 1 < self.policy.attempts:
                    self.retries += 1
                    self._sleep(self.policy.delay(attempt))
        self.giveups += 1
        assert last is not None
        note_anomaly(
            "backend.retry_exhausted",
            f"{self.policy.attempts} attempts failed: {last}",
        )
        raise last

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        self._call(lambda: self.inner.put(namespace, key, data))

    def get(self, namespace: str, key: bytes) -> bytes:
        return self._call(lambda: self.inner.get(namespace, key))

    def get_range(self, namespace: str, key: bytes, offset: int, size: int) -> bytes:
        return self._call(lambda: self.inner.get_range(namespace, key, offset, size))

    def object_size(self, namespace: str, key: bytes) -> int:
        return self._call(lambda: self.inner.object_size(namespace, key))

    def exists(self, namespace: str, key: bytes) -> bool:
        return self._call(lambda: self.inner.exists(namespace, key))

    def keys(self, namespace: str) -> list[bytes]:
        return self._call(lambda: self.inner.keys(namespace))

    def delete(self, namespace: str, key: bytes) -> bool:
        return self._call(lambda: self.inner.delete(namespace, key))

    def object_count(self, namespace: str) -> int:
        return self._call(lambda: self.inner.object_count(namespace))

    def bytes_stored(self, namespace: str) -> int:
        return self._call(lambda: self.inner.bytes_stored(namespace))

    def namespaces(self) -> list[str]:
        return self._call(lambda: self.inner.namespaces())

    def purge_incomplete(self, prefix: str = "") -> int:
        return self._call(lambda: self.inner.purge_incomplete(prefix))
