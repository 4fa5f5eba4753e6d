"""Serial lanes over a shared thread pool: the server's execution shape.

Each dedup session must see its operations in order (open, then
writes, then commit) while sessions of different clients run
concurrently.  A :class:`SerialLane` gives one session that FIFO
guarantee; the :class:`FleetExecutor` owns the thread pool all lanes
share.  Sharding a corpus across deduplicators is a different axis and
lives in :mod:`repro.cluster`.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any

__all__ = ["FleetExecutor", "SerialLane"]


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

    Sessions share live objects (one backend, tenant ledgers, locks)
    that must not cross a process boundary, and the service's work is
    dominated by per-session ordering anyway.  A thread fleet with
    serial lanes gives the right semantics; hashing releases the GIL
    often enough for streams to overlap I/O.

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
