"""TTTD — the Two-Threshold Two-Divisor chunker (Eshghi & Tang 2005).

The paper's Section II describes TTTD as the improved CDC variant:
besides the *main* divisor ``D`` (expected size ``ECS``) it tracks a
*backup* divisor ``D' = D/2`` that matches twice as often.  When a scan
reaches ``max_size`` without a main match, the cut goes at the last
backup match in the window instead of at the arbitrary ``max_size``
byte, so forced cuts stay content-defined.  Both divisors run on the
vectorised Karp–Rabin hash; backup matches are a superset of main ones.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import numpy.typing as npt

from ._select import select_cut_points
from .base import Buffer, Chunker, ChunkerConfig
from .vectorized import VectorizedChunker

__all__ = ["TTTDChunker"]


class TTTDChunker(Chunker):
    """Two-Threshold Two-Divisor chunking on the Karp–Rabin hash."""

    def __init__(self, config: ChunkerConfig | None = None) -> None:
        self.config = config or ChunkerConfig()
        if self.config.expected_size < 128:
            raise ValueError("TTTD needs expected_size >= 128 for a backup divisor")
        self._main = VectorizedChunker(self.config)
        self._backup = VectorizedChunker(
            replace(self.config, expected_size=self.config.expected_size // 2)
        )

    def _cut_points_ctx(self, data: Buffer, hist: int) -> npt.NDArray[np.int64]:
        n = len(data) - hist
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        main, backup = (
            c[c > hist] - hist
            for c in (self._main.candidates(data), self._backup.candidates(data))
        )
        min_size, max_size = self.config.min_size, self.config.max_size
        cuts: list[int] = []
        start = 0
        while n - start > max_size:
            lo, hi = start + min_size, start + max_size
            k = int(np.searchsorted(main, lo, side="left"))
            if k < len(main) and main[k] <= hi:
                start = int(main[k])
            else:
                # No main match: the last in-window backup match, else force.
                kb = int(np.searchsorted(backup, hi, side="right")) - 1
                start = int(backup[kb]) if kb >= 0 and backup[kb] >= lo else hi
            cuts.append(start)
        # The tail is shorter than max_size: plain main-divisor selection.
        tail = select_cut_points(main[main > start] - start, n - start, min_size, max_size)
        return np.concatenate([np.asarray(cuts, dtype=np.int64), tail + start]) + hist
