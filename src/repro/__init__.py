"""repro — reproduction of "Hysteresis Re-chunking Based Metadata
Harnessing Deduplication of Disk Images" (Zhou & Wen, ICPP 2013).

Public API overview
-------------------
* :class:`repro.MHDDeduplicator` — the paper's BF-MHD algorithm.
* :mod:`repro.baselines` — CDC, Bimodal, SubChunk, SparseIndexing.
* :class:`repro.DedupConfig` — the ECS/SD parameterisation.
* :mod:`repro.chunking` — vectorised content-defined chunkers.
* :mod:`repro.storage` — metered disk substrate (chunks, manifests,
  hooks, file manifests) over memory or directory backends.
* :mod:`repro.workloads` — synthetic disk-image backup corpora.
* :mod:`repro.analysis` — Table I/II formulas, timing model, reports.

Quickstart::

    from repro import DedupConfig, MHDDeduplicator
    from repro.workloads import tiny_corpus

    dedup = MHDDeduplicator(DedupConfig(ecs=1024, sd=8))
    stats = dedup.process(tiny_corpus())
    print(stats.real_der, stats.metadata_ratio)
"""

from .analysis import AlgorithmRun, DeviceModel, evaluate
from .baselines import (
    BimodalDeduplicator,
    CDCDeduplicator,
    SparseIndexingDeduplicator,
    SubChunkDeduplicator,
)
from .chunking import ChunkerConfig, VectorizedChunker
from .core import DedupConfig, DedupStats, Deduplicator, MHDDeduplicator, SIMHDDeduplicator
from .registry import available, resolve
from .workloads import BackupCorpus, CorpusConfig

__version__ = "1.0.0"

__all__ = [
    "AlgorithmRun",
    "DeviceModel",
    "evaluate",
    "BimodalDeduplicator",
    "CDCDeduplicator",
    "SparseIndexingDeduplicator",
    "SubChunkDeduplicator",
    "SIMHDDeduplicator",
    "ChunkerConfig",
    "VectorizedChunker",
    "DedupConfig",
    "DedupStats",
    "Deduplicator",
    "MHDDeduplicator",
    "BackupCorpus",
    "CorpusConfig",
    "available",
    "resolve",
    "__version__",
]
