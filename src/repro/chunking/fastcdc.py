"""FastCDC-style normalized chunking (Xia et al., ATC'16 lineage).

A forward-looking extension beyond the paper's 2013 tool set: plain
CDC draws chunk sizes from a geometric distribution, so many chunks
land far from ``ECS`` — small ones inflate metadata, large ones hurt
dedup.  *Normalized chunking* tightens the distribution by using a
**stricter** cut condition before the target size and a **looser** one
after it:

* for positions closer than ``ECS`` to the last cut, a candidate must
  clear a threshold ``2^64 / (ECS << level)`` (``level`` extra bits of
  luck needed);
* past ``ECS``, the threshold loosens to ``2^64 / (ECS >> level)``.

Both thresholds are evaluated from the same Karp–Rabin hash array the
vectorised chunker computes, so normalization costs two candidate
scans and keeps the content-defined resynchronisation property (each
condition is position-in-chunk dependent, but boundaries still anchor
on content once streams realign — the looser mask is a superset of the
stricter one).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .base import Buffer, Chunker, ChunkerConfig
from .reference import ReferenceChunker
from .vectorized import VectorizedChunker

__all__ = ["FastCDCChunker"]


class FastCDCChunker(Chunker):
    """Normalized-chunking CDC on the shared Karp–Rabin hash.

    Parameters
    ----------
    normalization:
        The level ``NC-1``/``NC-2``/``NC-3`` from the FastCDC paper —
        how many bits the cut condition tightens/loosens by around the
        target size.  ``0`` degenerates to plain CDC.
    batched:
        Kernel for the two underlying candidate scans: ``True`` (the
        default) the NumPy :class:`VectorizedChunker`, ``False`` the
        scalar :class:`~repro.chunking.reference.ReferenceChunker` spec
        loop the equivalence suite compares it against.
        Both produce identical candidates, so normalized selection is
        byte-identical either way.
    """

    def __init__(
        self,
        config: ChunkerConfig | None = None,
        normalization: int = 2,
        *,
        batched: bool = True,
    ) -> None:
        self.config = config or ChunkerConfig()
        if not 0 <= normalization <= 4:
            raise ValueError(f"normalization must be in [0, 4], got {normalization}")
        self.normalization = normalization
        self.batched = batched
        # Two underlying chunkers give us the strict and loose candidate
        # sets from the identical rolling hash (same seed).
        strict_cfg = ChunkerConfig(
            expected_size=self.config.expected_size << normalization,
            min_size=self.config.min_size,
            max_size=self.config.max_size,
            window=self.config.window,
            seed=self.config.seed,
        )
        loose_cfg = ChunkerConfig(
            expected_size=max(16, self.config.expected_size >> normalization),
            min_size=self.config.min_size,
            max_size=self.config.max_size,
            window=self.config.window,
            seed=self.config.seed,
        )
        chunker_cls: type[VectorizedChunker] | type[ReferenceChunker] = (
            VectorizedChunker if self.batched else ReferenceChunker
        )
        self._strict: Chunker = chunker_cls(strict_cfg)
        self._loose: Chunker = chunker_cls(loose_cfg)

    def cut_points(self, data: Buffer) -> npt.NDArray[np.int64]:
        n = len(data)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return self._select(
            self._strict.candidates(data), self._loose.candidates(data), n
        )

    def _cut_points_ctx(self, data: Buffer, hist: int) -> npt.NDArray[np.int64]:
        if hist == 0:
            return self.cut_points(data)
        strict = self._strict.candidates(data)
        loose = self._loose.candidates(data)
        cuts = self._select(
            strict[strict > hist] - hist, loose[loose > hist] - hist, len(data) - hist
        )
        return cuts + hist

    def _select(
        self,
        strict: npt.NDArray[np.int64],
        loose: npt.NDArray[np.int64],
        n: int,
    ) -> npt.NDArray[np.int64]:
        """Normalized-chunking cut selection over candidate arrays."""
        min_size, max_size = self.config.min_size, self.config.max_size
        target = self.config.expected_size
        cuts: list[int] = []
        start = 0
        while n - start > min_size:
            # Region 1: [start+min, start+target) — strict condition.
            lo, mid = start + min_size, min(start + target, n)
            k = int(np.searchsorted(strict, lo, side="left"))
            cut: int | None = None
            if k < len(strict) and strict[k] < mid:
                cut = int(strict[k])
            else:
                # Region 2: [start+target, start+max] — loose condition.
                hi = start + max_size
                k = int(np.searchsorted(loose, mid, side="left"))
                if k < len(loose) and loose[k] <= hi and loose[k] < n:
                    cut = int(loose[k])
                elif hi < n:
                    cut = hi  # forced
            if cut is None or cut >= n:
                break
            cuts.append(cut)
            start = cut
        cuts.append(n)
        return np.asarray(cuts, dtype=np.int64)
