"""Gear-hash CDC chunker (FastCDC-family), vectorised.

The gear rolling hash is ``H(i+1) = (H(i) << 1) + G[b_i]`` over a
256-entry random table ``G``.  Because the shift discards bits past
position 63, the hash of position ``p`` depends only on the previous
64 bytes — modulo-``2^64`` wraparound implements the sliding window
for free:

.. math:: H(p) = \\sum_{j=p-64}^{p-1} G[b_j] \\ll (p-1-j) \\bmod 2^{64}

Vectorisation: with ``g = G[b]`` this is a correlation of ``g`` with
the fixed kernel ``(2^63, ..., 2, 1)`` — ``min(window, 64)`` shifted
vectorised adds, each a single pass over the array.  For the default
32-byte window that is ~32 elementwise passes; still far faster than a
per-byte Python loop, and used in the repo as an *alternative* chunker
for ablation benches (the Karp–Rabin chunker is the default).

Cut condition: ``H`` falls below ``2^64 / ECS``, the
FastCDC-style high-bit threshold test (gear's high bits carry the
most entropy).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ._select import select_cut_points, splitmix64
from .base import Buffer, Chunker, ChunkerConfig

__all__ = ["GearChunker"]

_U64 = (1 << 64) - 1


class GearChunker(Chunker):
    """Gear-hash content-defined chunker (batched or scalar kernel).

    ``config.window`` is clamped to at most 64 (bits shifted past 63
    vanish, so a wider window is unobservable).

    ``batched=True`` (the default) runs the NumPy kernel;
    ``batched=False`` the scalar byte-at-a-time rolling loop, which is
    the executable specification the batched kernel must match
    bit-for-bit (``tests/chunking/test_batched_equivalence.py``).
    """

    def __init__(
        self,
        config: ChunkerConfig | None = None,
        *,
        batched: bool = True,
    ) -> None:
        self.config = config or ChunkerConfig()
        self.batched = batched
        rng = splitmix64(self.config.seed + 0x47454152)  # "GEAR" domain-separated
        self._table = np.array([rng.next() for _ in range(256)], dtype=np.uint64)
        # Plain-int mirror for the scalar loop: indexing a Python list
        # of ints avoids a numpy-scalar boxing per byte.
        self._table_list = [int(x) for x in self._table]
        self._window = min(self.config.window, 64)
        self._threshold = np.uint64(min(self.config.hash_threshold, (1 << 64) - 1))

    def candidates(self, data: Buffer) -> npt.NDArray[np.int64]:
        """Positions whose gear window hash satisfies the cut condition."""
        if self.batched:
            return self._candidates_batched(data)
        return self._candidates_scalar(data)

    #: Positions per batched block.  The kernel makes ``window`` passes
    #: over its ``uint64`` work arrays, so they must stay cache-resident:
    #: whole-buffer operation on a 16 MiB input is ~8× slower (memory
    #: bound) than 32 KiB blocks whose gather/shift/add loop runs in L2.
    _BLOCK = 1 << 15

    def _candidates_batched(self, data: Buffer) -> npt.NDArray[np.int64]:
        n = len(data)
        w = self._window
        if n < w:
            return np.empty(0, dtype=np.int64)
        raw = np.frombuffer(data, dtype=np.uint8)
        table, threshold = self._table, self._threshold
        pieces: list[npt.NDArray[np.int64]] = []
        with np.errstate(over="ignore"):
            # Block covering positions [p0, p1] needs bytes [p0-w, p1);
            # the hash depends only on window content, so per-block
            # results are globally exact.
            for p0 in range(w, n + 1, self._BLOCK):
                p1 = min(n, p0 + self._BLOCK - 1)
                g = table[raw[p0 - w : p1]]
                m = p1 - p0 + 1
                # H(p) for p in [p0, p1]; correlation of g with the
                # powers-of-two kernel: g[p-1-t] contributes << t.
                h = np.zeros(m, dtype=np.uint64)
                for t in range(w):
                    h += g[w - 1 - t : w - 1 - t + m] << np.uint64(t)
                idx = np.nonzero(h < threshold)[0]
                if idx.size:
                    pieces.append(idx.astype(np.int64) + p0)
        if not pieces:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pieces)

    def _candidates_scalar(self, data: Buffer) -> npt.NDArray[np.int64]:
        """Rolling byte-at-a-time gear loop — the executable spec.

        Maintains the windowed hash incrementally: the byte leaving the
        window sits at shift ``w-1`` just before the roll, so
        ``H(p) = ((H(p-1) - (G[b_{p-1-w}] << (w-1))) << 1) + G[b_{p-1}]``
        modulo ``2^64``.  (For ``w == 64`` the subtraction is a no-op
        mod ``2^64`` — the shift would discard that bit anyway — which
        keeps the formula uniform.)
        """
        n = len(data)
        w = self._window
        if n < w:
            return np.empty(0, dtype=np.int64)
        b = memoryview(data)
        table = self._table_list
        threshold = int(self._threshold)
        out: list[int] = []
        h = 0
        for j in range(w):  # H(w): gear over the first window
            h = ((h << 1) + table[b[j]]) & _U64
        if h < threshold:
            out.append(w)
        drop_shift = w - 1
        for p in range(w + 1, n + 1):
            h = (
                ((h - (table[b[p - 1 - w]] << drop_shift)) << 1) + table[b[p - 1]]
            ) & _U64
            if h < threshold:
                out.append(p)
        return np.array(out, dtype=np.int64)

    def cut_points(self, data: Buffer) -> npt.NDArray[np.int64]:
        n = len(data)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return select_cut_points(
            self.candidates(data), n, self.config.min_size, self.config.max_size
        )
