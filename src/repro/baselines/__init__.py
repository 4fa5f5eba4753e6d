"""Baseline deduplication algorithms.

The four the paper evaluates against (CDC, Bimodal, SubChunk,
SparseIndexing), implemented in full.
"""

from .bimodal import BimodalDeduplicator
from .cdc import CDCDeduplicator
from .sparse_indexing import SparseIndexingDeduplicator
from .subchunk import SubChunkDeduplicator

__all__ = [
    "BimodalDeduplicator",
    "CDCDeduplicator",
    "SparseIndexingDeduplicator",
    "SubChunkDeduplicator",
]
