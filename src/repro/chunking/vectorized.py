"""The production Karp–Rabin CDC chunker: one compiled call, NumPy fallback.

:class:`VectorizedChunker` gives exactly the cut points of
:class:`repro.chunking.reference.ReferenceChunker`.  It cuts through
the compiled kernel ``_cdc.c``: one C call per buffer that fuses the
rolling hash with the min/max selection, re-seeds the window hash at
each chunk's ``start + min_size`` and never builds a candidate array.
The kernel is built with the interpreter's C compiler on first use
(:mod:`repro.chunking._cdc`); where that fails the chunker falls back,
by itself, to the NumPy kernel below plus ``select_cut_points``.
:meth:`VectorizedChunker.candidates` is always the NumPy kernel — TTTD
and the tests use it.

The NumPy trick
---------------
The window hash is a difference of prefix hashes:

.. math:: H(p) = P(p) - P(p-w)\\,M^w, \\qquad
          P(i) = \\sum_{j<i} b_j M^{\\,i-1-j}

``P`` itself is a linear recurrence (``P(i+1) = P(i) M + b_i``) and so
appears sequential, but because ``M`` is odd it is invertible modulo
``2^64``.  Writing ``Q(i) = \\sum_{j<i} b_j M^{-(j+1)}`` gives
``P(i) = M^i Q(i)`` where ``Q`` is a plain cumulative sum of
``b_j * Minv^{j+1}`` — and cumulative sums and products of ``uint64``
arrays wrap modulo ``2^64`` exactly as the maths requires.  Then

.. math:: H(p) = M^p\\,(Q(p) - Q(p-w))

The two power sequences depend only on ``M`` and are cached, so a
block costs five elementwise ``uint64`` passes: widen-and-multiply,
``cumsum``, window difference, multiply by ``M^p``, compare.  The cut
test is ``H(p) * C < 2^64 / ECS`` for the odd finaliser ``C``; since
``(M^p d) C = (M^p C) d`` modulo ``2^64`` the cached table holds
``M^p C`` and the finaliser costs no pass of its own.

Inputs are processed in overlapping blocks (default 128 Ki positions)
whose work arrays are allocated once per call and stay cache-resident,
so the passes run at cache speed.  The compare writes into one ``bool``
mask over the input, whose ``flatnonzero`` is the candidate array: peak
memory is the mask (one byte per input byte), the candidates (eight
bytes each) and ``4 × 8 ×`` block size of scratch and shared tables
(~4 MiB).  The hash only depends on window *content*, so per-block
candidate positions are globally exact.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from . import _cdc
from .base import Buffer, Chunker, ChunkerConfig
from .reference import hash_params

__all__ = ["VectorizedChunker"]

_U64 = (1 << 64) - 1


def _modinv_pow2(a: int) -> int:
    """Inverse of odd ``a`` modulo ``2^64`` via Newton iteration.

    Raises :class:`ValueError` for even ``a`` (no inverse exists
    modulo a power of two) and verifies the result with an explicit
    check — a bare ``assert`` here would be stripped under
    ``python -O`` and let a silently-wrong inverse corrupt every cut
    point downstream.
    """
    if a & 1 == 0:
        raise ValueError(f"multiplier must be odd to be invertible mod 2^64, got {a}")
    x = a  # 3-bit correct seed for odd a
    for _ in range(6):  # doubles correct bits: 3→6→12→24→48→96
        x = (x * (2 - a * x)) & _U64
    if (a * x) & _U64 != 1:
        raise ValueError(f"modular inverse verification failed for multiplier {a}")
    return x


#: Process-wide power-table cache keyed by the rolling-hash constants
#: ``(M, C)``: ``(Minv^(j+1))_j`` and ``(M^p C)_p`` (``Minv`` is derived
#: from ``M``), so the key is complete: chunkers sharing a seed —
#: TTTD's main/backup pair, every default-seed chunker of a fleet —
#: share one pair of tables, while differently-seeded configs get
#: distinct entries and can never poison each other's hashes.  Entries
#: only ever grow and cached arrays are never mutated in place, so
#: concurrent readers (service fleet threads) always observe a
#: consistent table; the worst race is two threads computing the same
#: entry and one overwriting the other with identical values.
_POWER_TABLES: dict[
    tuple[int, int], tuple[npt.NDArray[np.uint64], npt.NDArray[np.uint64]]
] = {}


def _shared_power_tables(
    mult: int, final: int, m: int
) -> tuple[npt.NDArray[np.uint64], npt.NDArray[np.uint64]]:
    """``(Minv^(j+1))_{j<m}`` and ``(M^p C)_{p<=m}``, cached per ``(M, C)``."""
    cached = _POWER_TABLES.get((mult, final))
    if cached is None or len(cached[0]) < m:
        with np.errstate(over="ignore"):
            pow_minv = np.full(m, _modinv_pow2(mult), dtype=np.uint64)
            np.cumprod(pow_minv, out=pow_minv)
            pow_mf = np.full(m + 1, mult, dtype=np.uint64)
            pow_mf[0] = final
            np.cumprod(pow_mf, out=pow_mf)
        cached = (pow_minv, pow_mf)
        _POWER_TABLES[(mult, final)] = cached
    return cached


class VectorizedChunker(Chunker):
    """Production CDC chunker; cut-point identical to the reference."""

    def __init__(
        self,
        config: ChunkerConfig | None = None,
        block_size: int = 1 << 17,
    ) -> None:
        self.config = config or ChunkerConfig()
        if block_size <= self.config.window:
            raise ValueError("block_size must exceed the hash window")
        self._block = block_size
        self._mult, self._final = hash_params(self.config.seed)
        self._threshold = np.uint64(min(self.config.hash_threshold, (1 << 64) - 1))
        # Power tables are identical for every block of the same length
        # and depend only on the hash constants, so they live in the
        # process-wide ``_POWER_TABLES`` cache (saves two cumprod passes
        # per block and shares work across same-seed chunkers).
        # Instance mirrors keep the arrays alive and let tests observe
        # reuse.
        self._pow_minv: npt.NDArray[np.uint64] | None = None
        self._pow_mf: npt.NDArray[np.uint64] | None = None

    def _cut_points_ctx(self, data: Buffer, hist: int) -> npt.NDArray[np.int64]:
        kernel = _cdc.compiled()
        if kernel is None:
            return super()._cut_points_ctx(data, hist)
        return kernel(data, hist, self.config, self._mult, self._final)

    def _power_tables(
        self, m: int
    ) -> tuple[npt.NDArray[np.uint64], npt.NDArray[np.uint64]]:
        """Cached ``(Minv^(j+1))_{j<m}`` and ``(M^p C)_{p<=m}`` tables."""
        pow_minv, pow_mf = self._pow_minv, self._pow_mf
        if pow_minv is None or pow_mf is None or len(pow_minv) < m:
            pow_minv, pow_mf = _shared_power_tables(self._mult, self._final, m)
            self._pow_minv, self._pow_mf = pow_minv, pow_mf
        return pow_minv, pow_mf

    def candidates(self, data: Buffer) -> npt.NDArray[np.int64]:
        """Sorted positions satisfying the cut condition (global indices)."""
        n = len(data)
        w = self.config.window
        if n < w:
            return np.empty(0, dtype=np.int64)
        raw = np.frombuffer(data, dtype=np.uint8)
        # A block covering positions [p0, p1] needs bytes [p0-w, p1), so
        # no block is longer than this; tables and scratch are sized
        # once and every block works in slices of them.
        span = min(n, self._block + w - 1)
        pow_minv, pow_mf = self._power_tables(span)
        q = np.empty(span + 1, dtype=np.uint64)
        q[0] = 0  # Q(0); blocks only ever write q[1:]
        h = np.empty(span + 1 - w, dtype=np.uint64)
        # cut[p - w]: position p is a candidate.  A zero run makes every
        # position one, so a mask (1 byte per position) is what stays
        # small there, not per-block index arrays (8, and 16 once joined).
        cut = np.empty(n + 1 - w, dtype=np.bool_)
        threshold = self._threshold
        with np.errstate(over="ignore"):
            for p0 in range(w, n + 1, self._block):
                p1 = min(n, p0 + self._block - 1)
                k = p1 - p0 + 1  # positions in the block
                m = k + w - 1  # bytes they need
                # Q(i) = sum_{j<i} b_j * minv^(j+1).  The multiply widens
                # the zero-copy uint8 view to uint64 in the ufunc's
                # casting buffers, so no 8x copy of the input exists.
                np.multiply(raw[p0 - w : p1], pow_minv[:m], out=q[1 : m + 1])
                np.cumsum(q[1 : m + 1], out=q[1 : m + 1])
                # H(p) * C = (M^p C) * (Q(p) - Q(p-w)), local p in [w, m]
                np.subtract(q[w : m + 1], q[:k], out=h[:k])
                np.multiply(h[:k], pow_mf[w : m + 1], out=h[:k])
                np.less(h[:k], threshold, out=cut[p0 - w : p0 - w + k])
        del q, h  # freed before the index array exists: a lower peak
        out = np.flatnonzero(cut).astype(np.int64, copy=False)
        out += w
        return out
