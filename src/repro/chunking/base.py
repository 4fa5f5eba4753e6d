"""Common chunking types: :class:`Chunk`, :class:`ChunkerConfig` and the
:class:`Chunker` interface.

All chunkers in this package share one contract: given an input buffer
they return a strictly increasing array of *cut points* ``[c_1, ...,
c_k]`` with ``c_k == len(data)``; chunk ``i`` covers bytes
``[c_{i-1}, c_i)`` (with ``c_0 == 0``).  Content-defined chunkers
(Karp–Rabin, TTTD) choose cut points from the data so that
boundaries resynchronise after insertions/deletions — the property
that defeats the boundary-shifting problem of fixed-size chunking.

Streaming
---------
:meth:`Chunker.chunk_stream` is the bounded-memory entry point: it
pulls ``window_bytes``-sized reads from a file-like object and yields
batches of :class:`Chunk` objects whose cut points are **identical**
to a whole-buffer :meth:`Chunker.chunk` call.  The driver holds back
the unconsumed tail (at most ``max_size`` plus the chunker's declared
lookahead) between windows, so peak buffering is
``window_bytes + max_size + lookahead + lookback`` regardless of
stream length.  Exactness rests on two properties every in-repo
chunker satisfies:

* candidate positions are *content-local*: whether position ``p`` is a
  cut candidate depends only on bytes within ``lookback`` before and
  ``lookahead`` after ``p`` (declared via :meth:`Chunker.stream_params`);
* cut selection is *sequential from the last cut*: the decision that
  produces the next cut inspects only candidates within ``max_size``
  of the current chunk start.

Chunks whose decisions could still be changed by unread bytes are
carried over to the next window; at EOF the remainder is flushed with
the genuine end-of-input rules.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np
import numpy.typing as npt

from ..obs.metrics import Histogram
from ._select import select_cut_points

__all__ = [
    "Chunk",
    "ChunkerConfig",
    "Chunker",
    "ChunkSource",
    "StreamStats",
    "chunks_from_cut_points",
    "DEFAULT_STREAM_WINDOW",
]

#: Buffer types every chunker accepts (streaming hands over
#: ``bytearray`` carry buffers; whole-file ingest hands over ``bytes``).
Buffer = bytes | bytearray | memoryview


class ChunkSource(Protocol):
    """The reader seam of the streaming pipeline.

    Anything with a ``read(n)`` returning at most ``n`` bytes (``b""``
    at end of stream) can feed :meth:`Chunker.chunk_stream` — open
    binary files, ``io.BytesIO``, sockets wrapped in a buffer, custom
    throttled readers.
    """

    def read(self, n: int, /) -> bytes:
        """Return up to ``n`` bytes; empty means end of stream."""
        ...

#: Default read size for :meth:`Chunker.chunk_stream` (1 MiB).
DEFAULT_STREAM_WINDOW = 1 << 20


@dataclass(frozen=True)
class Chunk:
    """One chunk of an input buffer.

    ``data`` is a zero-copy :class:`memoryview` into the original
    buffer (copies of multi-megabyte streams are the dominant avoidable
    cost in Python dedup pipelines).
    """

    offset: int
    size: int
    data: memoryview = field(repr=False)

    def tobytes(self) -> bytes:
        """Materialise the chunk's bytes (copies)."""
        return bytes(self.data)


@dataclass(frozen=True)
class ChunkerConfig:
    """Parameters shared by the content-defined chunkers.

    Parameters
    ----------
    expected_size:
        The paper's ``ECS`` — the mean chunk size targeted by the cut
        condition, which fires when the finalised window hash falls
        below ``2^64 / ECS`` (probability exactly ``1/ECS``; any
        ECS ≥ 16 is supported, matching the paper's 768-byte sweep
        point).
    min_size, max_size:
        Hard bounds on chunk length.  Leave at ``0`` (the default) to
        derive LBFS-style bounds: ``min = max(64, ECS // 4)`` and
        ``max = 8 * ECS``; after construction both are always concrete
        positive sizes.
    window:
        Sliding-window width in bytes for the rolling hash.
    seed:
        Seeds the rolling-hash constants; two chunkers with the same
        seed make identical cut decisions.
    """

    expected_size: int = 4096
    min_size: int = 0
    max_size: int = 0
    window: int = 48
    seed: int = 0x9E3779B9

    def __post_init__(self) -> None:
        ecs = self.expected_size
        if ecs < 16:
            raise ValueError(f"expected_size must be >= 16, got {ecs}")
        if not self.min_size:
            object.__setattr__(self, "min_size", max(64, ecs // 4))
        if not self.max_size:
            object.__setattr__(self, "max_size", 8 * ecs)
        if self.min_size <= 0:
            raise ValueError(f"min_size must be positive, got {self.min_size}")
        if self.max_size < self.min_size:
            raise ValueError(
                f"max_size ({self.max_size}) must be >= min_size ({self.min_size})"
            )
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")

    @property
    def hash_threshold(self) -> int:
        """Finalised window hashes below this value are cut candidates
        (``2^64 / ECS``, giving an exact ``1/ECS`` probability)."""
        return (1 << 64) // self.expected_size

    def scaled(self, factor: int) -> ChunkerConfig:
        """A config with ``expected_size`` multiplied by ``factor``.

        Used by the bimodal-family algorithms whose *big* chunk size is
        ``ECS * SD`` for sampling distance ``SD``.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return ChunkerConfig(
            expected_size=self.expected_size * factor,
            window=self.window,
            seed=self.seed,
        )


def chunks_from_cut_points(data: Buffer, cuts: npt.NDArray[np.int64]) -> list[Chunk]:
    """Build :class:`Chunk` views from a cut-point array."""
    view = memoryview(data)
    out: list[Chunk] = []
    start = 0
    for end in cuts.tolist():
        out.append(Chunk(offset=start, size=end - start, data=view[start:end]))
        start = end
    return out


@dataclass
class StreamStats:
    """Per-stream counters :meth:`Chunker.chunk_stream` fills in.

    The deduplicators fold these into their pipeline statistics so a
    run can prove its chunking stage really was bounded-memory.
    """

    windows: int = 0  # non-empty reads pulled from the source
    stalls: int = 0  # windows that could not emit a single stable cut
    peak_buffer_bytes: int = 0  # high-water mark of carry + window
    #: When set (by telemetry-enabled ingest), every emitted chunk's
    #: size is observed here — the primary-stream size distribution.
    size_hist: Histogram | None = None


class Chunker:
    """Interface implemented by every chunking algorithm."""

    config: ChunkerConfig

    def cut_points(self, data: Buffer) -> npt.NDArray[np.int64]:
        """Strictly increasing ``int64`` cut positions ending at ``len(data)``.

        An empty input yields an empty array.
        """
        return self._cut_points_ctx(data, 0)

    def candidates(self, data: Buffer) -> npt.NDArray[np.int64]:
        """Positions where the cut condition fires, before selection.

        Chunkers relying on the default :meth:`_cut_points_ctx` (the
        ``select_cut_points(candidates(...))`` shape) implement this;
        chunkers with bespoke selection override :meth:`_cut_points_ctx`
        instead and may leave it unimplemented.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose cut candidates"
        )

    def chunk(self, data: Buffer) -> list[Chunk]:
        """Split ``data`` into :class:`Chunk` views.

        This is the one-big-window degenerate case of
        :meth:`chunk_stream` and remains the fast path for inputs that
        are already materialised in memory.
        """
        if len(data) == 0:
            return []
        return chunks_from_cut_points(data, self.cut_points(data))

    # ---- streaming -------------------------------------------------------

    def stream_params(self) -> tuple[int, int]:
        """``(lookback, lookahead)`` context bytes candidate decisions need.

        ``lookback`` bytes before a position and ``lookahead`` bytes
        after it must be buffered for the candidate test at that
        position to be byte-identical to a whole-input run.  The
        default covers every rolling-hash chunker (the hash window);
        chunkers with other context (fixed-size needs none) override.
        """
        return self.config.window, self.config.window

    def _cut_points_ctx(self, data: Buffer, hist: int) -> npt.NDArray[np.int64]:
        """Cut points of ``data[hist:]`` given ``data[:hist]`` as context.

        Positions are relative to ``data`` (i.e. ``> hist``, ending at
        ``len(data)``).  The context prefix participates in candidate
        *computation* (rolling-hash windows may reach into it) but cut
        *selection* starts at ``hist`` — exactly the state of a
        whole-input run whose previous cut landed at ``hist``.

        The default implementation covers chunkers of the
        ``select_cut_points(candidates(...))`` shape; chunkers with
        bespoke selection (TTTD, fixed-size) override, and
        ``VectorizedChunker`` overrides with its compiled kernel.
        """
        n = len(data) - hist
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        cands = self.candidates(data)
        local = cands[cands > hist] - hist if hist else cands
        cuts = select_cut_points(local, n, self.config.min_size, self.config.max_size)
        return cuts + hist if hist else cuts

    def chunk_stream(
        self,
        reader: ChunkSource,
        window_bytes: int = DEFAULT_STREAM_WINDOW,
        stats: StreamStats | None = None,
    ) -> Iterator[list[Chunk]]:
        """Chunk a file-like object incrementally, in bounded memory.

        Yields batches of :class:`Chunk` objects whose offsets are
        absolute stream positions and whose concatenation reproduces
        the stream byte-for-byte.  Cut points are identical to
        ``chunk(whole_stream)`` for any ``window_bytes`` — the unstable
        tail (up to ``max_size + lookahead`` bytes) is carried into the
        next window instead of being cut early.
        """
        if window_bytes <= 0:
            raise ValueError(f"window_bytes must be positive, got {window_bytes}")
        lookback, lookahead = self.stream_params()
        holdback = self.config.max_size + lookahead
        # A bytearray so appending the next window is amortised O(n)
        # over the stream (``bytes +=`` would re-copy the whole carry
        # buffer per window — the quadratic pattern DDC005 rejects).
        # Re-slicing below rebinds to a fresh bytearray, so no exported
        # chunk view is ever resized under a consumer.
        buf = bytearray()  # lookback context + pending (unemitted) bytes
        hist = 0  # length of the already-emitted context prefix of buf
        pos = 0  # absolute stream offset of buf[hist]
        while True:
            piece = reader.read(window_bytes)
            if not piece:
                if len(buf) > hist:
                    # Sample the high-water mark here too: the carry +
                    # tail flushed at EOF is buffered memory just like a
                    # mid-stream window, and a reader that returns short
                    # reads could otherwise peak in this branch without
                    # the append-time sample below ever seeing it.
                    if stats is not None and len(buf) > stats.peak_buffer_bytes:
                        stats.peak_buffer_bytes = len(buf)
                    cuts: list[int] = self._cut_points_ctx(buf, hist).tolist()
                    tail = _emit_batch(buf, hist, cuts, pos)
                    if stats is not None and stats.size_hist is not None:
                        stats.size_hist.observe_many(c.size for c in tail)
                    yield tail
                return
            buf += piece
            if stats is not None:
                stats.windows += 1
                if len(buf) > stats.peak_buffer_bytes:
                    stats.peak_buffer_bytes = len(buf)
            # A decision starting at `start` is final only once
            # `start + holdback` bytes are buffered: the selector looks
            # at candidates up to start+max_size, and each candidate
            # needs `lookahead` bytes beyond itself.
            if hist + holdback > len(buf):
                if stats is not None:
                    stats.stalls += 1
                continue
            emit: list[int] = []
            last = hist
            for cut in self._cut_points_ctx(buf, hist).tolist():
                if last + holdback > len(buf):
                    break
                emit.append(cut)
                last = cut
            if not emit:
                if stats is not None:
                    stats.stalls += 1
                continue
            batch = _emit_batch(buf, hist, emit, pos)
            if stats is not None and stats.size_hist is not None:
                stats.size_hist.observe_many(c.size for c in batch)
            pos += emit[-1] - hist
            keep_from = emit[-1] - min(lookback, emit[-1])
            hist = emit[-1] - keep_from
            buf = buf[keep_from:]
            yield batch

    def validate_cuts(self, data_len: int, cuts: npt.NDArray[np.int64]) -> None:
        """Assert the cut-point contract (used by tests and debug runs)."""
        if data_len == 0:
            if len(cuts) != 0:
                raise AssertionError("empty input must produce no cuts")
            return
        if len(cuts) == 0 or int(cuts[-1]) != data_len:
            raise AssertionError("last cut must equal input length")
        if np.any(np.diff(cuts) <= 0) or int(cuts[0]) <= 0:
            raise AssertionError("cut points must be strictly increasing and positive")


def _emit_batch(buf: Buffer, hist: int, cuts: list[int], pos: int) -> list[Chunk]:
    """Build absolute-offset :class:`Chunk` views over one buffer."""
    view = memoryview(buf)
    out: list[Chunk] = []
    start = hist
    for c in cuts:
        out.append(Chunk(offset=pos + start - hist, size=c - start, data=view[start:c]))
        start = c
    return out
