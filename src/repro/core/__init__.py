"""The paper's primary contribution: BF-MHD and its building blocks."""

from .base import CpuWork, DedupStats, Deduplicator
from .config import DedupConfig
from .hhr import (
    HHRPlan,
    Span,
    apply_split,
    match_prefix_chunks,
    match_suffix_chunks,
    plan_backward_split,
    plan_forward_split,
)
from .manifest_cache import ManifestCache
from .mhd import MHDDeduplicator
from .si_mhd import SIMHDDeduplicator
from .shm import append_group, build_group_entries

__all__ = [
    "CpuWork",
    "DedupStats",
    "Deduplicator",
    "DedupConfig",
    "HHRPlan",
    "Span",
    "apply_split",
    "match_prefix_chunks",
    "match_suffix_chunks",
    "plan_backward_split",
    "plan_forward_split",
    "ManifestCache",
    "MHDDeduplicator",
    "SIMHDDeduplicator",
    "append_group",
    "build_group_entries",
]
