"""Content-defined and fixed-size chunking algorithms.

:class:`VectorizedChunker` (NumPy Karp–Rabin CDC) is the default
chunker used by every deduplicator in the repository;
:class:`ReferenceChunker` is its byte-at-a-time executable
specification.  :class:`TTTDChunker`, :class:`GearChunker` and
:class:`FixedChunker` are the alternatives the paper discusses in its
related-work section, used in ablation benches.
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
from .fastcdc import FastCDCChunker
from .fixed import FixedChunker
from .gear import GearChunker
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
    "FastCDCChunker",
    "FixedChunker",
    "GearChunker",
    "ReferenceChunker",
    "TTTDChunker",
    "VectorizedChunker",
]
