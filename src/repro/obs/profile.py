"""Continuous profiling: a stdlib-only background stack sampler.

:class:`StackSampler` wakes every ``interval_s`` seconds, snapshots
every live thread's Python stack via :func:`sys._current_frames`, and
accumulates **collapsed stacks** — the flamegraph input format, one
line per distinct stack::

    repro.cli:main;repro.core.base:process;repro.chunking.cdc:split 42

(frames root→leaf joined by ``;``, then a space and the sample count;
frame labels are ``module:function``).  Feed the output straight to
``flamegraph.pl`` or any speedscope-compatible viewer.

Sampling is wait-free for the profiled threads — no sys.settrace, no
instrumentation; cost is one frame walk per live thread per tick in
the sampler's own daemon thread.  A ``thread_prefixes`` filter narrows
attention to e.g. the service's fleet workers (threads named
``fleet-…``) so event-loop bookkeeping does not drown out dedup work.

Attachment point: ``repro-dedup profile -- <subcommand …>`` wraps any
CLI run; ``repro-dedup profile --threads fleet --out srv.folded serve
…`` profiles a server's ingest fleet until Ctrl-C.
"""

from __future__ import annotations

import sys
import threading
from collections.abc import Sequence
from pathlib import Path
from types import FrameType

__all__ = ["StackSampler", "collapse_frame"]


def collapse_frame(frame: FrameType) -> str:
    """Label one frame as ``module:function`` for the collapsed stack."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_code.co_name}"


class StackSampler:
    """Samples all thread stacks into collapsed-stack counts.

    Parameters
    ----------
    interval_s:
        Target sampling period (wall clock).
    thread_prefixes:
        Only sample threads whose name starts with one of these
        prefixes; ``None`` samples every thread except the sampler
        itself.
    max_depth:
        Stacks deeper than this are truncated at the root end (the
        leaf frames — where time is actually spent — are kept).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    Thread-safe; :meth:`collapsed` may be read while sampling.
    """

    def __init__(
        self,
        interval_s: float = 0.005,
        thread_prefixes: Sequence[str] | None = None,
        max_depth: int = 64,
    ) -> None:
        if interval_s <= 0.0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.thread_prefixes = tuple(thread_prefixes) if thread_prefixes is not None else None
        self.max_depth = max_depth
        self._counts: dict[str, int] = {}
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ---- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start the sampling daemon thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (idempotent).

        The join is bounded: the sampler wakes at least every
        ``interval_s``, so a generous multiple of that is enough, and
        the thread is a daemon — a (never observed) straggler cannot
        hang interpreter shutdown.
        """
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, self.interval_s * 10))
        self._thread = None

    def __enter__(self) -> StackSampler:
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ---- sampling --------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def sample_once(self) -> None:
        """Take one sample of every eligible thread (also callable
        directly from tests — no background thread required)."""
        me = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate() if t.ident is not None}
        frames = sys._current_frames()
        with self._lock:
            self._samples += 1
            for ident, frame in frames.items():
                if ident == me:
                    continue
                name = names.get(ident, "?")
                if self.thread_prefixes is not None and not name.startswith(
                    self.thread_prefixes
                ):
                    continue
                stack = self._walk(frame)
                if stack:
                    self._counts[stack] = self._counts.get(stack, 0) + 1

    def _walk(self, frame: FrameType | None) -> str:
        labels: list[str] = []
        while frame is not None and len(labels) < self.max_depth:
            labels.append(collapse_frame(frame))
            frame = frame.f_back
        labels.reverse()
        return ";".join(labels)

    # ---- output ----------------------------------------------------------

    @property
    def samples(self) -> int:
        """Number of sampling ticks taken so far."""
        with self._lock:
            return self._samples

    def collapsed(self) -> str:
        """The accumulated profile in collapsed-stack format."""
        with self._lock:
            items = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(f"{stack} {count}" for stack, count in items)

    def write(self, path: str | Path) -> int:
        """Write the collapsed profile to ``path``; returns stack count."""
        text = self.collapsed()
        Path(path).write_text(text + "\n" if text else "", encoding="utf-8")
        return 0 if not text else text.count("\n") + 1
