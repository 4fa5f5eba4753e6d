"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is the quantitative half of the telemetry layer (the
tracing half lives in :mod:`repro.obs.trace`).  Design constraints,
in order:

* **Cheap.**  A metric handle is fetched with one dict lookup and
  updated with one integer add; hot paths cache handles and skip even
  the lookup.  No locks — the registry is process-local by contract
  (each fleet shard owns its own).
* **Mergeable.**  :meth:`MetricsRegistry.merge` folds another registry
  in; the operation is associative and commutative (counters add,
  gauges keep the max, histograms add bucket-wise), so fleet
  aggregation order never changes the result.

Histograms use *fixed* bucket upper bounds declared at creation, the
Prometheus cumulative-friendly shape: merging two histograms is legal
exactly when their bounds are identical, which :meth:`Histogram.merge`
enforces.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SIZE_BUCKETS",
    "COUNT_BUCKETS",
]

#: Power-of-two byte-size bounds (64 B … 1 MiB) for chunk/extent
#: size distributions — wide enough for every ECS the paper sweeps.
SIZE_BUCKETS: tuple[float, ...] = tuple(float(1 << p) for p in range(6, 21))

#: Small-integer bounds for event-count distributions (extension
#: lengths, group sizes).
COUNT_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time numeric metric (last-write-wins; merge keeps max).

    Used for high-water marks (peak RAM, peak buffer) — hence the
    max-merge across shards, which preserves "worst observed anywhere".
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        """Set the gauge to ``v``."""
        self.value = v

    def set_max(self, v: float) -> None:
        """Raise the gauge to ``v`` if it is a new high-water mark."""
        if v > self.value:
            self.value = v

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Histogram:
    """Fixed-bucket histogram (cumulative-compatible, Prometheus-style).

    ``bounds`` are strictly increasing upper bounds; an implicit
    ``+Inf`` bucket catches the overflow.  ``counts[i]`` is the number
    of observations ``<= bounds[i]`` *exclusive of lower buckets* (the
    per-bucket, not cumulative, representation — cumulative sums are
    derived at exposition time).
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        b = tuple(float(x) for x in bounds)
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bucket bounds must be strictly increasing: {b}")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)  # last slot is +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, v: float) -> None:
        """Record one observation."""
        self.counts[self._slot(v)] += 1
        self.total += 1
        self.sum += v

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations (one pass, no intermediate list)."""
        slot = self._slot
        counts = self.counts
        n = 0
        s = 0.0
        for v in values:
            counts[slot(v)] += 1
            n += 1
            s += v
        self.total += n
        self.sum += s

    def _slot(self, v: float) -> int:
        """Index of the first bucket whose bound is >= ``v`` (binary search)."""
        bounds = self.bounds
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if v <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (``le=bound`` semantics), +Inf last."""
        out: list[int] = []
        acc = 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out

    def merge(self, other: Histogram) -> None:
        """Fold ``other`` into this histogram (identical bounds required)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.sum += other.sum

    def __repr__(self) -> str:
        return f"Histogram(n={self.total}, sum={self.sum})"


class MetricsRegistry:
    """Name → metric table for one process (or one fleet shard).

    Names are dotted lowercase paths (``disk.chunk.write.ops``,
    ``mhd.hhr.splits`` — see docs/OBSERVABILITY.md for the catalogue).
    ``counter``/``gauge``/``histogram`` get-or-create, so call sites
    never need existence checks; asking for an existing name with a
    different metric kind raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Counter | Gauge | Histogram | None:
        m = self._metrics.get(name)
        if m is None:
            return None
        if type(m) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}, "
                f"not {kind.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        m = self._get(name, Counter)
        if m is None:
            m = Counter()
            self._metrics[name] = m
        assert isinstance(m, Counter)
        return m

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        m = self._get(name, Gauge)
        if m is None:
            m = Gauge()
            self._metrics[name] = m
        assert isinstance(m, Gauge)
        return m

    def histogram(self, name: str, bounds: Sequence[float] = SIZE_BUCKETS) -> Histogram:
        """Get or create the histogram called ``name``.

        ``bounds`` only matters on first creation; a later fetch with
        different bounds raises ``ValueError`` (bounds are part of the
        metric's identity — silent mismatch would corrupt merges).
        """
        m = self._get(name, Histogram)
        if m is None:
            m = Histogram(bounds)
            self._metrics[name] = m
        assert isinstance(m, Histogram)
        if m.bounds != tuple(float(x) for x in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds {m.bounds}"
            )
        return m

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> tuple[str, ...]:
        """All registered metric names, sorted."""
        return tuple(sorted(self._metrics))

    def items(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """(name, metric) pairs, sorted by name."""
        return sorted(self._metrics.items())

    def merge(self, other: MetricsRegistry) -> None:
        """Fold another registry into this one (associative/commutative).

        Counters add, gauges keep the max, histograms add bucket-wise.
        Metrics present only in ``other`` are deep-copied in so later
        updates to either registry stay independent.
        """
        for name, m in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(m, Counter):
                    self.counter(name).inc(m.value)
                elif isinstance(m, Gauge):
                    self.gauge(name).set(m.value)
                else:
                    self.histogram(name, m.bounds).merge(m)
                continue
            if type(mine) is not type(m):
                raise TypeError(
                    f"cannot merge metric {name!r}: {type(mine).__name__} "
                    f"vs {type(m).__name__}"
                )
            if isinstance(mine, Counter):
                assert isinstance(m, Counter)
                mine.inc(m.value)
            elif isinstance(mine, Gauge):
                assert isinstance(m, Gauge)
                mine.set_max(m.value)
            else:
                assert isinstance(mine, Histogram) and isinstance(m, Histogram)
                mine.merge(m)

    def filtered(self, prefix: str) -> MetricsRegistry:
        """A new registry holding copies of metrics named ``prefix``*.

        The copies are independent (the same deep-copy semantics as
        :meth:`merge` into an empty registry), so subsystem views —
        e.g. the cluster's ``cluster.`` slice of a fleet registry — can
        be exported or merged onward without aliasing the source.
        """
        out = MetricsRegistry()
        for name, m in self._metrics.items():
            if not name.startswith(prefix):
                continue
            if isinstance(m, Counter):
                out.counter(name).inc(m.value)
            elif isinstance(m, Gauge):
                out.gauge(name).set(m.value)
            else:
                out.histogram(name, m.bounds).merge(m)
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot of every metric."""
        out: dict[str, Any] = {}
        for name, m in self.items():
            if isinstance(m, Counter):
                out[name] = m.value
            elif isinstance(m, Gauge):
                out[name] = m.value
            else:
                out[name] = {
                    "bounds": list(m.bounds),
                    "counts": list(m.counts),
                    "count": m.total,
                    "sum": m.sum,
                }
        return out
