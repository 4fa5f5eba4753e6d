"""The one place mapping algorithm names to deduplicator classes.

``cli.py``, the cluster's shard workers, the service, the examples and
the benchmark harness all need the same six-entry name → class table;
maintaining separate copies let them drift.  They now all call
:func:`resolve` / :func:`available` here.
"""

from __future__ import annotations

from collections.abc import Callable

from .baselines import (
    BimodalDeduplicator,
    CDCDeduplicator,
    SparseIndexingDeduplicator,
    SubChunkDeduplicator,
)
from .core import MHDDeduplicator, SIMHDDeduplicator

__all__ = ["available", "describe", "entries", "resolve"]

_REGISTRY: dict[str, Callable] = {
    "bf-mhd": MHDDeduplicator,
    "si-mhd": SIMHDDeduplicator,
    "cdc": CDCDeduplicator,
    "bimodal": BimodalDeduplicator,
    "subchunk": SubChunkDeduplicator,
    "sparse-indexing": SparseIndexingDeduplicator,
}

#: One-line description per algorithm (``repro list`` output).
_DESCRIPTIONS: dict[str, str] = {
    "bf-mhd": "MHD with Bloom-filtered hook index (the paper's main system)",
    "si-mhd": "MHD with a sparse in-RAM hook index instead of the Bloom filter",
    "cdc": "plain content-defined chunking with a full chunk index (baseline)",
    "bimodal": "bimodal chunking: big chunks, re-chunked small at dup boundaries",
    "subchunk": "two-level chunk/sub-chunk dedup with per-bin manifests",
    "sparse-indexing": "Lillibridge-style sampled sparse index over segments",
}


def available() -> tuple[str, ...]:
    """Registered algorithm names, in registration order."""
    return tuple(_REGISTRY)


def describe(name: str) -> str:
    """One-line description of a registered algorithm."""
    if name not in available():
        raise ValueError(f"unknown algorithm {name!r}")
    return _DESCRIPTIONS.get(name, "(no description)")


def entries() -> list[tuple[str, str]]:
    """``(name, one-line description)`` for every algorithm, in order."""
    return [(name, describe(name)) for name in available()]


def resolve(name: str) -> Callable:
    """The deduplicator class registered under ``name``.

    Raises ``ValueError`` (listing the valid names) for unknown names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None
