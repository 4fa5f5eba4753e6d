"""Sharded, multi-process deduplication.

The paper's introduction motivates MHD with distributed deployments:
"Metadata related overhead also greatly impacts the deduplication
performance in distributed systems related applications such as large
scale data backup."  The standard way such systems scale is *routing*:
the stream is sharded (here: by machine, the natural unit of a backup
fleet), each shard is deduplicated independently by its own node, and
duplicates *across* shards are deliberately missed — trading a little
DER for linear scale-out, exactly like Extreme Binning's bins or
HYDRAstor's supernodes.

This module runs one deduplicator per shard in a ``multiprocessing``
pool (the guides' standard CPython answer to CPU-bound parallelism —
chunking and SHA-1 hold the GIL) and folds the per-shard
:class:`~repro.core.base.DedupStats` into a fleet-level aggregate.
The simulated wall time of the fleet is the *maximum* shard time
(nodes run concurrently), which the aggregate's ThroughputRatio
reflects.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import Any

from .analysis.timing import DeviceModel
from .core.base import CpuWork, DedupStats, PipelineStats
from .core.config import DedupConfig
from .obs import MetricsRegistry, Telemetry
from .workloads.machine import BackupFile

__all__ = [
    "FleetExecutor",
    "FleetResult",
    "SerialLane",
    "ShardFailure",
    "ShardResult",
    "dedup_sharded",
    "shard_by_machine",
]


# -- in-process fleet: shared thread pool with serial lanes ----------------


class SerialLane:
    """A FIFO lane over a shared pool: one task of this lane at a time.

    Tasks submitted to one lane run in submission order with no
    overlap, while tasks of *other* lanes run concurrently on the same
    worker pool.  This is the service's execution shape: each dedup
    session is a lane (its operations must stay ordered — open, then
    writes, then commit), the fleet of sessions shares the pool.

    The lane holds no thread while idle: a "pump" task is submitted to
    the pool when work arrives and exits when the queue drains.
    """

    def __init__(self, pool: ThreadPoolExecutor) -> None:
        self._pool = pool
        self._lock = threading.Lock()
        self._queue: deque[tuple[Future[Any], Callable[[], object]]] = deque()
        self._pumping = False

    @property
    def depth(self) -> int:
        """Tasks queued behind the one currently running (if any)."""
        with self._lock:
            return len(self._queue)

    def submit(self, fn: Callable[[], object]) -> Future[Any]:
        """Enqueue a zero-argument callable; returns its future.

        Raises :class:`RuntimeError` (propagated from the pool) when
        the fleet is shut down — after failing every future the lane
        had queued, so no caller is left waiting on a wake-up that can
        never come.
        """
        fut: Future[Any] = Future()
        with self._lock:
            self._queue.append((fut, fn))
            start_pump = not self._pumping
            self._pumping = True
        if start_pump:
            try:
                self._pool.submit(self._pump)
            except RuntimeError:
                # Pool shut down: no pump will ever drain the queue.
                # Strand nothing — fail the queued futures (ours, plus
                # any a racing submit added behind it) and reset the
                # pump flag so the lane stays consistent.
                with self._lock:
                    stranded = list(self._queue)
                    self._queue.clear()
                    self._pumping = False
                for stranded_fut, _ in stranded:
                    if stranded_fut.set_running_or_notify_cancel():
                        stranded_fut.set_exception(
                            RuntimeError("fleet executor is shut down")
                        )
                raise
        return fut

    def _pump(self) -> None:
        while True:
            with self._lock:
                if not self._queue:
                    self._pumping = False
                    return
                fut, fn = self._queue.popleft()
            if not fut.set_running_or_notify_cancel():
                continue
            try:
                fut.set_result(fn())
            except BaseException as e:  # noqa: BLE001 - delivered via the future
                fut.set_exception(e)


class FleetExecutor:
    """Shared thread pool handing out :class:`SerialLane` views.

    The multiprocessing pool below scales CPU-bound batch runs; the
    service cannot use it — sessions share live objects (one backend,
    tenant ledgers, locks) that must not cross a process boundary, and
    its work is dominated by per-session ordering anyway.  A thread
    fleet with serial lanes gives the right semantics; hashing releases
    the GIL often enough for streams to overlap I/O.

    ``thread_name_prefix`` names the worker threads (``fleet-N`` by
    default) — the handle the continuous profiler's
    :class:`~repro.obs.profile.StackSampler` filters on to sample only
    dedup work, and the prefix the DDC102 "fleet threads never wait"
    lint reasons about.
    """

    #: Default worker-thread name prefix; the profiler filters on it.
    THREAD_NAME_PREFIX = "fleet"

    def __init__(
        self, workers: int | None = None, thread_name_prefix: str | None = None
    ) -> None:
        if workers is None:
            workers = min(32, (os.cpu_count() or 1) + 4)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.thread_name_prefix = thread_name_prefix or self.THREAD_NAME_PREFIX
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=self.thread_name_prefix
        )

    def lane(self) -> SerialLane:
        """A new serial lane over the shared pool."""
        return SerialLane(self._pool)

    def submit(self, fn: Callable[[], object]) -> Future[Any]:
        """Run an unordered task directly on the pool."""
        return self._pool.submit(fn)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally wait for queued tasks."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> FleetExecutor:
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.shutdown(wait=True)


def shard_by_machine(files: Iterable[BackupFile]) -> dict[str, list[BackupFile]]:
    """Group a backup stream by its machine prefix (``pcNN/...``)."""
    shards: dict[str, list[BackupFile]] = {}
    for f in files:
        shards.setdefault(f.file_id.split("/", 1)[0], []).append(f)
    return shards


@dataclass(frozen=True)
class ShardResult:
    """One shard's outcome."""

    shard: str
    stats: DedupStats
    dedup_seconds: float
    #: The shard worker's telemetry registry (``None`` unless the run
    #: was launched with ``collect_metrics=True``).  Registries are
    #: picklable by design, so they cross the pool boundary unchanged.
    metrics: MetricsRegistry | None = None


@dataclass(frozen=True)
class ShardFailure:
    """One shard that produced no result.

    ``kind`` is ``"error"`` when the worker raised (the exception text
    is preserved) or ``"lost"`` when the worker died without reporting
    back at all — an OOM-kill or hard crash; a pool respawns the worker
    but the task's result never arrives, so loss is detected by the
    per-shard timeout.
    """

    shard: str
    error: str
    kind: str = "error"


@dataclass(frozen=True)
class FleetResult:
    """Aggregate over all shards.

    Aggregates cover the *surviving* shards; shards that failed are
    listed on :attr:`failures` and contribute nothing to the sums.
    """

    shards: tuple[ShardResult, ...]
    failures: tuple[ShardFailure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        """True when every shard produced a result."""
        return not self.failures

    @property
    def input_bytes(self) -> int:
        """Total bytes ingested across every shard."""
        return sum(s.stats.input_bytes for s in self.shards)

    @property
    def stored_chunk_bytes(self) -> int:
        """Chunk bytes stored by all shards combined."""
        return sum(s.stats.stored_chunk_bytes for s in self.shards)

    @property
    def metadata_bytes(self) -> int:
        """Metadata bytes across all shards combined."""
        return sum(s.stats.metadata_bytes for s in self.shards)

    @property
    def data_only_der(self) -> float:
        """Fleet-level DER excluding metadata."""
        return self.input_bytes / max(1, self.stored_chunk_bytes)

    @property
    def real_der(self) -> float:
        """Fleet-level DER including metadata."""
        return self.input_bytes / max(1, self.stored_chunk_bytes + self.metadata_bytes)

    @property
    def makespan_seconds(self) -> float:
        """Fleet wall time = slowest shard (nodes run concurrently)."""
        return max((s.dedup_seconds for s in self.shards), default=0.0)

    @property
    def aggregate_seconds(self) -> float:
        """Total node-seconds spent (the cost, not the latency)."""
        return sum(s.dedup_seconds for s in self.shards)

    @property
    def speedup(self) -> float:
        """Aggregate work / makespan — the scale-out win."""
        return self.aggregate_seconds / max(1e-12, self.makespan_seconds)

    @property
    def cpu(self) -> CpuWork:
        """Fleet-total CPU work (chunked/hashed/compared bytes summed)."""
        total = CpuWork()
        for s in self.shards:
            total.chunked += s.stats.cpu.chunked
            total.hashed += s.stats.cpu.hashed
            total.compared += s.stats.cpu.compared
        return total

    @property
    def pipeline(self) -> PipelineStats:
        """Fleet-total pipeline counters (peak buffer is the max shard).

        Counters sum (batches, windows, stalls, streamed files);
        ``peak_buffer_bytes`` takes the worst shard, since shards run in
        separate processes and never share one buffer.
        """
        total = PipelineStats()
        for s in self.shards:
            p = s.stats.pipeline
            total.batches += p.batches
            total.windows += p.windows
            total.stalls += p.stalls
            total.streamed_files += p.streamed_files
            if p.peak_buffer_bytes > total.peak_buffer_bytes:
                total.peak_buffer_bytes = p.peak_buffer_bytes
        return total

    def metrics(self) -> MetricsRegistry:
        """Merge every shard's telemetry registry into one.

        Merge order does not matter (counters add, gauges max,
        histograms add bucket-wise).  Empty unless the run collected
        metrics; the result is a fresh registry, never a shard's own.
        """
        merged = MetricsRegistry()
        for s in self.shards:
            if s.metrics is not None:
                merged.merge(s.metrics)
        return merged


# -- worker ----------------------------------------------------------------


def _run_shard(
    args: tuple[str, str, DedupConfig, list[BackupFile], DeviceModel, bool]
) -> ShardResult:
    # Name → class resolution happens inside the worker (the registry
    # populates lazily), keeping this function pickle-friendly.
    from .registry import resolve

    shard, algo, config, files, device, collect_metrics = args
    dedup = resolve(algo)(config)
    tel: Telemetry | None = None
    if collect_metrics:
        tel = Telemetry()  # metrics only; sinks live in the parent
        dedup.telemetry = tel
    stats = dedup.process(files)
    return ShardResult(
        shard=shard,
        stats=stats,
        dedup_seconds=device.dedup_time(stats),
        metrics=tel.registry if tel is not None else None,
    )


def dedup_sharded(
    files: Iterable[BackupFile],
    algo: str = "bf-mhd",
    config: DedupConfig | None = None,
    workers: int | None = None,
    device: DeviceModel | None = None,
    shard_fn: Callable[[Iterable[BackupFile]], dict[str, list[BackupFile]]] = shard_by_machine,
    collect_metrics: bool = False,
    shard_timeout: float | None = None,
) -> FleetResult:
    """Deduplicate a corpus sharded across worker processes.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses one process per shard (capped at CPU
        count), ``1`` runs in-process (deterministic, debuggable).
    collect_metrics:
        Attach a metrics-only telemetry context to each shard worker;
        the per-shard registries come back on the
        :class:`ShardResult`\\ s and merge via
        :meth:`FleetResult.metrics`.
    shard_timeout:
        Seconds to wait for each shard's result before declaring the
        worker lost (``kind="lost"`` on :attr:`FleetResult.failures`).
        ``None`` waits forever — a SIGKILLed pool worker's task simply
        never reports back, so deployments that must survive OOM kills
        should set a bound.

    Shard results are collected per shard: one worker raising (or dying)
    costs only that shard, every surviving :class:`ShardResult` is
    returned and the casualty is reported on
    :attr:`FleetResult.failures`.
    """
    from .registry import resolve

    config = config or DedupConfig()
    device = device or DeviceModel()
    resolve(algo)  # fail fast on unknown algorithms
    shards = shard_fn(files)
    if not shards:
        return FleetResult(shards=())
    jobs = [
        (shard, algo, config, shard_files, device, collect_metrics)
        for shard, shard_files in sorted(shards.items())
    ]
    if workers is None:
        workers = min(len(jobs), mp.cpu_count())
    results: list[ShardResult] = []
    failures: list[ShardFailure] = []

    def record_failure(shard: str, exc: BaseException) -> None:
        failures.append(ShardFailure(shard, f"{type(exc).__name__}: {exc}"))

    if workers <= 1 or len(jobs) == 1:
        for job in jobs:
            try:
                results.append(_run_shard(job))
            except Exception as e:  # noqa: BLE001 - shard isolation: one shard's crash must not sink the fleet
                record_failure(job[0], e)
    else:
        # apply_async, not map(): map() is all-or-nothing — one dead
        # worker (OOM-kill) used to discard every completed shard.
        # Per-shard results stream back independently instead.
        with mp.Pool(processes=min(workers, len(jobs))) as pool:
            pending = [(job[0], pool.apply_async(_run_shard, (job,))) for job in jobs]
            pool.close()
            for shard, handle in pending:
                try:
                    results.append(handle.get(shard_timeout))
                except mp.TimeoutError:
                    # A killed worker's task vanishes: the pool respawns
                    # the process but this handle never completes.
                    failures.append(
                        ShardFailure(
                            shard,
                            f"no result within {shard_timeout}s (worker lost)",
                            kind="lost",
                        )
                    )
                except Exception as e:  # noqa: BLE001 - shard isolation (see above)
                    record_failure(shard, e)
    return FleetResult(shards=tuple(results), failures=tuple(failures))
