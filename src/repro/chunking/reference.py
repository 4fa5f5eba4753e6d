"""Pure-Python reference Karp–Rabin CDC chunker.

This is the executable specification of the rolling hash: a direct,
byte-at-a-time implementation of the sliding-window hash that the
vectorised chunker (:mod:`repro.chunking.vectorized`) reproduces with
NumPy prefix tricks.  It is O(n) Python-level work and therefore only
suitable for tests and small inputs — the property-based test-suite
checks the two implementations produce *identical* cut points.

Hash definition (shared with the vectorised chunker)
----------------------------------------------------
With window width ``w``, odd multiplier ``M`` and input bytes ``b``:

.. math:: H(p) = \\sum_{j=p-w}^{p-1} b_j \\, M^{\\,p-1-j} \\bmod 2^{64}

A position ``p`` (a cut *after* byte ``p-1``) is a candidate when the
top ``log2(ECS)`` bits of ``H(p) * C`` are all zero, where ``C`` is an
odd finalising multiplier.  Multiplicative finalisation is used because
the low bits of a mod-``2^64`` Karp–Rabin hash mix poorly; testing the
*top* bits of an odd-multiplier product gives an unbiased ``1/ECS``
cut probability even on structured data.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ._select import splitmix64
from .base import Buffer, Chunker, ChunkerConfig

__all__ = ["ReferenceChunker", "hash_params"]

_U64 = (1 << 64) - 1


def hash_params(seed: int) -> tuple[int, int]:
    """Derive the (multiplier, finalizer) pair from a seed.

    Both the reference and the vectorised chunker call this, so equal
    seeds imply equal cut decisions.
    """
    rng = splitmix64(seed)
    mult = rng.next_odd()
    final = rng.next_odd()
    return mult, final


class ReferenceChunker(Chunker):
    """Byte-at-a-time Karp–Rabin CDC (the executable specification)."""

    def __init__(self, config: ChunkerConfig | None = None) -> None:
        self.config = config or ChunkerConfig()
        self._mult, self._final = hash_params(self.config.seed)
        # Precompute M^(w-1) for the rolling update.
        self._mult_out = pow(self._mult, self.config.window - 1, 1 << 64)
        # Cut when the finalised hash falls below 2^64 / ECS.
        self._threshold = self.config.hash_threshold

    def candidates(self, data: Buffer) -> npt.NDArray[np.int64]:
        """All positions whose window hash satisfies the cut condition."""
        b = bytes(data)
        n = len(b)
        w = self.config.window
        if n < w:
            return np.empty(0, dtype=np.int64)
        mult, final, threshold = self._mult, self._final, self._threshold
        mult_out = self._mult_out
        out: list[int] = []
        h = 0
        for j in range(w):
            h = (h * mult + b[j]) & _U64
        # h == H(w)
        if ((h * final) & _U64) < threshold:
            out.append(w)
        for p in range(w + 1, n + 1):
            h = ((h - b[p - 1 - w] * mult_out) * mult + b[p - 1]) & _U64
            if ((h * final) & _U64) < threshold:
                out.append(p)
        return np.asarray(out, dtype=np.int64)
