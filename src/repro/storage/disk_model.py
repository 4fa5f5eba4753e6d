"""Disk-access metering — the measurement substrate for Tables II & V.

Every store in :mod:`repro.storage` reports its logical disk operations
to a :class:`DiskModel`.  The paper compares algorithms by the *number*
of disk accesses ("the I/O overhead is compared on the basis of the
number of I/Os required"), broken down by object type (chunk data,
Hooks, Manifests) and direction, plus query counts against the on-disk
index.  The meter keeps exactly those counters, and supports snapshots
so experiments can report per-phase deltas.

The meter is deliberately independent of any timing model; converting
counts into simulated seconds is :mod:`repro.analysis.timing`'s job.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.metrics import Counter as MetricCounter
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import note_anomaly

if TYPE_CHECKING:
    from .backend import StorageBackend

__all__ = ["DiskModel", "IOSnapshot", "INODE_SIZE", "MeteredStore"]

#: Bytes charged per inode, as assumed in the paper's Section IV.
INODE_SIZE = 256


@dataclass(frozen=True)
class IOSnapshot:
    """Immutable view of the meter's counters.

    ``ops[(namespace, op)]`` counts operations;
    ``bytes[(namespace, op)]`` the bytes they moved.  ``op`` is one of
    ``"read"``, ``"write"``, ``"query"``, ``"delete"``.
    """

    ops: dict[tuple[str, str], int] = field(default_factory=dict)
    byte_counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def count(self, namespace: str | None = None, op: str | None = None) -> int:
        """Total operations, optionally filtered by namespace and/or op."""
        return sum(
            v
            for (ns, o), v in self.ops.items()
            if (namespace is None or ns == namespace) and (op is None or o == op)
        )

    def nbytes(self, namespace: str | None = None, op: str | None = None) -> int:
        """Total bytes moved, with the same filters as :meth:`count`."""
        return sum(
            v
            for (ns, o), v in self.byte_counts.items()
            if (namespace is None or ns == namespace) and (op is None or o == op)
        )

    def __sub__(self, other: IOSnapshot) -> IOSnapshot:
        ops = Counter(self.ops)
        ops.subtract(other.ops)
        nb = Counter(self.byte_counts)
        nb.subtract(other.byte_counts)
        negatives = sorted(
            {k for k, v in ops.items() if v < 0} | {k for k, v in nb.items() if v < 0}
        )
        if negatives:
            # Meters only ever count up, so a negative delta means the
            # operands were swapped or came from different runs; clamp
            # to zero rather than return nonsense counts, and report it.
            note_anomaly(
                "io_snapshot.negative_delta",
                f"clamped negative deltas for {negatives} "
                "(snapshot subtraction expects newer - older from one meter)",
            )
        return IOSnapshot(
            {k: v for k, v in ops.items() if v > 0},
            {k: v for k, v in nb.items() if v > 0},
        )


class DiskModel:
    """Mutable disk-operation meter shared by all stores of one run."""

    #: Well-known namespaces used by the stores.
    CHUNK = "chunk"
    MANIFEST = "manifest"
    HOOK = "hook"
    FILE_MANIFEST = "file_manifest"

    def __init__(self) -> None:
        self._ops: Counter[tuple[str, str]] = Counter()
        self._bytes: Counter[tuple[str, str]] = Counter()
        self._registry: MetricsRegistry | None = None
        self._mirror: dict[tuple[str, str], tuple[MetricCounter, MetricCounter]] = {}

    def attach_registry(self, registry: MetricsRegistry | None) -> None:
        """Mirror every future :meth:`record` into a metrics registry.

        Each ``(namespace, op)`` pair maps to two counters —
        ``disk.<ns>.<op>.ops`` and ``disk.<ns>.<op>.bytes`` — so
        telemetry sinks see the per-namespace I/O breakdown without a
        second accounting path.  Pass ``None`` to detach.  Existing
        totals are not back-filled; attach before the run starts.
        """
        self._registry = registry
        self._mirror = {}

    def record(self, namespace: str, op: str, nbytes: int, count: int = 1) -> None:
        """Record ``count`` operations moving ``nbytes`` total bytes."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        key = (namespace, op)
        self._ops[key] += count
        self._bytes[key] += nbytes
        registry = self._registry
        if registry is not None:
            pair = self._mirror.get(key)
            if pair is None:
                pair = (
                    registry.counter(f"disk.{namespace}.{op}.ops"),
                    registry.counter(f"disk.{namespace}.{op}.bytes"),
                )
                self._mirror[key] = pair
            pair[0].inc(count)
            pair[1].inc(nbytes)

    def snapshot(self) -> IOSnapshot:
        """Freeze the current counters (cheap; dict copies)."""
        return IOSnapshot(dict(self._ops), dict(self._bytes))

    # Convenience accessors used throughout the benches -----------------

    def count(self, namespace: str | None = None, op: str | None = None) -> int:
        """Current operation count (optionally filtered)."""
        return self.snapshot().count(namespace, op)

    def nbytes(self, namespace: str | None = None, op: str | None = None) -> int:
        """Current byte count (optionally filtered)."""
        return self.snapshot().nbytes(namespace, op)

    @property
    def total_ops(self) -> int:
        """All operations across every namespace."""
        return sum(self._ops.values())

    @property
    def total_bytes(self) -> int:
        """All bytes moved across every namespace."""
        return sum(self._bytes.values())

    def breakdown(self) -> dict[str, dict[str, int]]:
        """``{namespace: {op: count}}`` — the Table II row structure."""
        out: dict[str, dict[str, int]] = {}
        for (ns, op), v in sorted(self._ops.items()):
            out.setdefault(ns, {})[op] = v
        return out

    def merge(self, others: Iterable[DiskModel]) -> None:
        """Fold other meters into this one (parallel-run aggregation)."""
        for other in others:
            self._ops.update(other._ops)
            self._bytes.update(other._bytes)


class MeteredStore:
    """Base of the per-kind stores: a backend, the shared meter, and one
    metered ``write`` per whole-object put and ``read`` per get."""

    def __init__(self, backend: StorageBackend, meter: DiskModel) -> None:
        self._backend = backend
        self._meter = meter

    def _put(self, namespace: str, key: bytes, raw: bytes) -> None:
        self._backend.put(namespace, key, raw)
        self._meter.record(namespace, "write", len(raw))

    def _get(self, namespace: str, key: bytes) -> bytes:
        raw = self._backend.get(namespace, key)
        self._meter.record(namespace, "read", len(raw))
        return raw
