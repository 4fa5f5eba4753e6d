"""Storage seen from outside: a counting pass-through backend.

``CountingBackend`` wraps the real backend at the public ``backend=``
seam.  It changes no byte and no result; it records one
``storage.<op>`` span per call, carrying the namespace kind and the
bytes moved, from which :func:`storage_counts` derives exact call and
byte counts for any time window.  Namespace kinds drop the
``tenant.<id>.`` / ``shard.<name>.`` scoping prefixes, so ``chunk``
means chunk data wherever it lives.
"""

from __future__ import annotations

import re
import threading
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.storage import DiskModel, StorageBackend

from .settings import INODE_BYTES
from .spans import Span, Tracer

_SCOPE = re.compile(r"^(?:tenant|shard)\.[a-z0-9][a-z0-9_-]{0,63}\.")


def namespace_kind(namespace: str) -> str:
    """The namespace without its tenant/shard scoping prefix."""
    return _SCOPE.sub("", namespace, count=1)


def namespace_scope(namespace: str) -> str:
    """The ``tenant.<id>.`` / ``shard.<name>.`` prefix ('' if unscoped)."""
    m = _SCOPE.match(namespace)
    return m.group(0) if m else ""


@dataclass
class SpaceUse:
    """What a store holds, measured at the backend after ingest."""

    stored_bytes: int  # payload + inode bytes, every namespace
    metadata_bytes: int  # the same, non-chunk namespaces only
    objects: int
    chunk_bytes_by_scope: dict[str, int]


def space_use(backend: StorageBackend, skip_scope: str = "") -> SpaceUse:
    """Sum payload and inode bytes over the backend's namespaces.

    ``skip_scope`` leaves out one scope (the service's warm-up tenant).
    """
    stored = metadata = objects = 0
    chunk_by_scope: dict[str, int] = {}
    for ns in backend.namespaces():
        scope = namespace_scope(ns)
        if skip_scope and scope == skip_scope:
            continue
        count = backend.object_count(ns)
        payload = backend.bytes_stored(ns)
        nbytes = payload + INODE_BYTES * count
        stored += nbytes
        objects += count
        if namespace_kind(ns) == DiskModel.CHUNK:
            chunk_by_scope[scope] = chunk_by_scope.get(scope, 0) + payload
        else:
            metadata += nbytes
    return SpaceUse(stored, metadata, objects, chunk_by_scope)


@dataclass
class StorageCounts:
    """Exact call and byte counts, keyed by ``(namespace kind, op)``."""

    calls: Counter[tuple[str, str]] = field(default_factory=Counter)
    nbytes: Counter[tuple[str, str]] = field(default_factory=Counter)
    #: Puts that replaced an object this wrapper had already seen put.
    rewrites: Counter[str] = field(default_factory=Counter)
    seconds: Counter[str] = field(default_factory=Counter)

    def total_calls(self, op: str, kind: str | None = None) -> int:
        return sum(v for (k, o), v in self.calls.items() if o == op and kind in (None, k))

    def total_bytes(self, op: str, kind: str | None = None) -> int:
        return sum(v for (k, o), v in self.nbytes.items() if o == op and kind in (None, k))


def storage_counts(spans: Iterable[Span], window: tuple[float, float]) -> StorageCounts:
    """Counts of the ``storage.*`` spans that started inside ``window``."""
    counts = StorageCounts()
    lo, hi = window
    for s in spans:
        if not s.name.startswith("storage.") or not lo <= s.start < hi:
            continue
        op = s.name.split(".", 1)[1]
        kind = str(s.attrs.get("ns", ""))
        counts.calls[(kind, op)] += 1
        counts.nbytes[(kind, op)] += s.nbytes
        counts.seconds[op] += s.seconds
        if s.attrs.get("rewrite"):
            counts.rewrites[kind] += 1
    return counts


class CountingBackend(StorageBackend):
    """Byte-transparent wrapper recording a span per backend call."""

    def __init__(self, inner: StorageBackend, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self._seen: set[tuple[str, bytes]] = set()
        self._lock = threading.Lock()

    def put(self, namespace: str, key: bytes, data: bytes) -> None:
        with self._lock:
            rewrite = (namespace, key) in self._seen
            self._seen.add((namespace, key))
        with self.tracer.span(
            "storage.put", nbytes=len(data), ns=namespace_kind(namespace), rewrite=rewrite
        ):
            self.inner.put(namespace, key, data)

    def get(self, namespace: str, key: bytes) -> bytes:
        with self.tracer.span("storage.get", ns=namespace_kind(namespace)) as span:
            data = self.inner.get(namespace, key)
            if span is not None:
                span.nbytes = len(data)
        return data

    def exists(self, namespace: str, key: bytes) -> bool:
        with self.tracer.span("storage.exists", ns=namespace_kind(namespace)):
            return self.inner.exists(namespace, key)

    def keys(self, namespace: str) -> list[bytes]:
        with self.tracer.span("storage.keys", ns=namespace_kind(namespace)):
            return self.inner.keys(namespace)

    def delete(self, namespace: str, key: bytes) -> bool:
        with self._lock:
            self._seen.discard((namespace, key))
        with self.tracer.span("storage.delete", ns=namespace_kind(namespace)):
            return self.inner.delete(namespace, key)

    def object_count(self, namespace: str) -> int:
        with self.tracer.span("storage.stat", ns=namespace_kind(namespace)):
            return self.inner.object_count(namespace)

    def bytes_stored(self, namespace: str) -> int:
        with self.tracer.span("storage.stat", ns=namespace_kind(namespace)):
            return self.inner.bytes_stored(namespace)

    def namespaces(self) -> list[str]:
        return self.inner.namespaces()

    def purge_incomplete(self, prefix: str = "") -> int:
        """Recovery sweeps reach the real backend (cluster cold restart)."""
        fn = getattr(self.inner, "purge_incomplete", None)
        return int(fn(prefix)) if callable(fn) else 0
