"""Retention policies — which backups to expire, GFS-style.

:mod:`repro.storage.gc` knows how to delete a file and reclaim space;
this module decides *what* to delete.  Backup fleets almost never
expire ad-hoc: they keep the last N generations, plus sparser
long-horizon samples (the grandfather-father-son rotation).  File ids
produced by :mod:`repro.workloads` carry their generation in the path
(``pc03/gen007/...``), which the default extractor parses; any other
naming scheme can supply its own.

:func:`plan_retention` is pure (ids in, ids out) so policies are
testable without a store; :func:`apply_retention` executes the plan
via :func:`~repro.storage.gc.delete_file` + :func:`~repro.storage.gc.sweep`.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .backend import StorageBackend
from .gc import GCReport, delete_file, sweep
from .store import Store, as_store

__all__ = ["RetentionPolicy", "default_generation_of", "plan_retention", "apply_retention"]

_GEN_RE = re.compile(r"(?:^|/)gen(\d+)(?:/|$)")


def default_generation_of(file_id: str) -> int | None:
    """Extract the generation number from ``.../genNNN/...`` ids.

    Returns ``None`` for ids without a generation component — such
    files are never expired by a generation-based policy.
    """
    m = _GEN_RE.search(file_id)
    return int(m.group(1)) if m else None


@dataclass(frozen=True)
class RetentionPolicy:
    """Generation-based keep rules.

    Parameters
    ----------
    keep_last:
        The newest ``keep_last`` generations are always kept.
    keep_every:
        Additionally keep every ``keep_every``-th older generation
        (``0`` disables — the grandfather tier of a GFS rotation).
    """

    keep_last: int = 7
    keep_every: int = 0

    def __post_init__(self) -> None:
        if self.keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {self.keep_last}")
        if self.keep_every < 0:
            raise ValueError(f"keep_every must be >= 0, got {self.keep_every}")

    def kept_generations(self, generations: Sequence[int]) -> set[int]:
        """Which of the present generations survive."""
        present = sorted(set(generations))
        if not present:
            return set()
        kept = set(present[-self.keep_last :])
        if self.keep_every:
            kept.update(g for g in present if g % self.keep_every == 0)
        return kept


def plan_retention(
    file_ids: Iterable[str],
    policy: RetentionPolicy,
    generation_of: Callable[[str], int | None] = default_generation_of,
) -> list[str]:
    """File ids the policy expires (pure; no store access)."""
    ids = list(file_ids)
    generations = [g for g in (generation_of(f) for f in ids) if g is not None]
    kept = policy.kept_generations(generations)
    victims: list[str] = []
    for file_id in ids:
        g = generation_of(file_id)
        if g is not None and g not in kept:
            victims.append(file_id)
    return victims


def apply_retention(
    store: Store | StorageBackend,
    file_ids: Iterable[str],
    policy: RetentionPolicy,
    generation_of: Callable[[str], int | None] = default_generation_of,
) -> tuple[list[str], GCReport]:
    """Expire per policy and sweep; returns (deleted ids, GC report)."""
    store = as_store(store)
    victims = plan_retention(file_ids, policy, generation_of)
    for file_id in victims:
        delete_file(store, file_id)
    return victims, sweep(store)
