"""Cut-point selection shared by the content-defined chunkers.

The rolling hash proposes *candidate* positions; this module turns a
sorted candidate array into final cut points subject to the min/max
chunk-size bounds.  Keeping the selection logic in one place is what
lets the pure-Python reference chunker and the NumPy-vectorised
chunker agree bit-for-bit (a property the test-suite enforces).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = ["select_cut_points", "splitmix64"]


def splitmix64(seed: int) -> _SplitMix64:
    """Deterministic 64-bit constant generator for hash parameters."""
    return _SplitMix64(seed)


class _SplitMix64:
    """SplitMix64 PRNG — tiny, seedable, and dependency-free."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self._state = seed & self._MASK

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_odd(self) -> int:
        return self.next() | 1


def select_cut_points(
    candidates: npt.NDArray[np.int64],
    n: int,
    min_size: int,
    max_size: int,
) -> npt.NDArray[np.int64]:
    """Choose final cut points from sorted candidate positions.

    Rules (matching the Rabin-fingerprint chunking described in the
    paper's Section II): starting from the previous cut, the next cut
    is the first candidate at least ``min_size`` bytes away; if no
    candidate occurs within ``max_size`` bytes the cut is forced at
    ``max_size``.  The final cut always lands exactly at ``n``.

    Parameters
    ----------
    candidates:
        Sorted ``int64`` positions where the rolling-hash condition
        held (a cut *after* byte ``p-1``).
    n:
        Input length; the trailing cut.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    num = len(candidates)
    # One forward walk over plain ints: chunk starts only move right, so
    # the first candidate >= start + min_size is never behind ``k``.  When
    # the candidates outnumber the cuts there can be (a zero run makes
    # every position one), a binary search hops to it instead of listing
    # them as Python ints (~36 bytes each, 48x a zero run's bytes).
    dense = num > n // min_size + 1
    cands: list[int] | npt.NDArray[np.int64] = candidates if dense else candidates.tolist()

    def first_at_least(lo: int, k: int) -> int:
        if dense:
            return int(np.searchsorted(candidates, lo))
        while k < num and cands[k] < lo:
            k += 1
        return k

    cuts: list[int] = []
    start = 0
    k = 0  # index of the first candidate not yet ruled out
    while n - start > max_size:
        k = first_at_least(start + min_size, k)
        hi = start + max_size
        start = int(cands[k]) if k < num and cands[k] <= hi else hi
        cuts.append(start)
    # Tail: shorter than max_size.  A candidate may still split it,
    # provided both resulting pieces respect min_size where possible.
    while n - start > min_size:
        k = first_at_least(start + min_size, k)
        if k < num and cands[k] < n:
            start = int(cands[k])
            cuts.append(start)
        else:
            break
    cuts.append(n)
    return np.asarray(cuts, dtype=np.int64)
