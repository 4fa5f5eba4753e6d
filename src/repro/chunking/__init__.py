"""Content-defined and fixed-size chunking algorithms.

:class:`VectorizedChunker` (Karp–Rabin CDC: one compiled C call, the
NumPy kernel where no C compiler is available) is the default chunker
used by every deduplicator in the repository;
:class:`ReferenceChunker` is its byte-at-a-time executable
specification.  :class:`TTTDChunker` is the TTTD variant the
paper's Section II describes, and :class:`FixedChunker` the fixed-size
alternative behind its boundary-shifting argument; both are used in
ablation benches.
"""

from .base import (
    DEFAULT_STREAM_WINDOW,
    Buffer,
    Chunk,
    Chunker,
    ChunkerConfig,
    ChunkSource,
    StreamStats,
    chunks_from_cut_points,
)
from .fixed import FixedChunker
from .reference import ReferenceChunker
from .tttd import TTTDChunker
from .vectorized import VectorizedChunker

__all__ = [
    "Buffer",
    "Chunk",
    "Chunker",
    "ChunkerConfig",
    "ChunkSource",
    "StreamStats",
    "DEFAULT_STREAM_WINDOW",
    "chunks_from_cut_points",
    "FixedChunker",
    "ReferenceChunker",
    "TTTDChunker",
    "VectorizedChunker",
]
