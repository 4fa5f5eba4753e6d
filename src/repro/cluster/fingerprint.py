"""Representative-fingerprint routing keys.

A segment routes by **hook votes** — Sparse Indexing's sampled hooks
(``digest mod SD == 0``, the exact predicate of
``SparseIndexingDeduplicator._is_hook``): each hook votes for the ring
node that owns it, the plurality wins.  Similar segments share most of
their hooks, so they land on the same shard and deduplicate against
each other.  Ties are pinned by
:func:`repro.baselines.sparse_indexing.rank_champions` — the same
deterministic ``(-votes, key)`` order the champion-selection bugfix
introduced, so routing never depends on arrival order.

A segment with no hooks (short segment, unlucky sample) falls back to
the **min-digest** representative, Broder's min-wise sample
(``min(digests)``).

The caller samples a segment's hooks once (:func:`hooks_of`) and hands
them to both :func:`route_segment` and :func:`routing_key`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from ..baselines.sparse_indexing import rank_champions
from ..hashing import Digest
from .ring import HashRing

__all__ = [
    "hooks_of",
    "representative",
    "route_segment",
    "routing_key",
]


def representative(digests: Sequence[Digest]) -> Digest:
    """The min-wise representative: the minimum chunk digest."""
    if not digests:
        raise ValueError("cannot take a representative of zero digests")
    return min(digests)


def hooks_of(digests: Sequence[Digest], sd: int) -> list[Digest]:
    """Sparse Indexing's sample: digests with ``digest mod SD == 0``."""
    if sd < 1:
        raise ValueError(f"sd must be >= 1, got {sd}")
    return [d for d in digests if int.from_bytes(d[:8], "little") % sd == 0]


def routing_key(digests: Sequence[Digest], hooks: Sequence[Digest]) -> Digest:
    """The canonical single-digest key of a segment.

    The minimum hook when the segment has hooks, else the min-digest
    representative.  This is the key persisted in cluster recipes and
    re-evaluated by the rebalancer after ring membership changes.
    """
    return min(hooks) if hooks else representative(digests)


def route_segment(
    ring: HashRing, digests: Sequence[Digest], hooks: Sequence[Digest]
) -> str:
    """The worker a segment should go to.

    Every hook votes for its ring owner and the deterministic plurality
    wins; a segment without hooks routes by its representative.
    """
    if not hooks:
        return ring.route(representative(digests))
    votes: Counter[str] = Counter(ring.route(h) for h in hooks)
    winner: str = rank_champions(votes, limit=1)[0]
    return winner
