"""Shard rebalancing: split the hottest shard onto a new worker.

Consistent hashing makes the migration *bounded*: joining one worker
claims ~``1/(n+1)`` of the hash space, so only the segments whose
canonical routing key (pinned in their cluster recipes at ingest time)
now lands on the new node move.  Segments placed elsewhere — including
hook-vote placements that differ from their canonical key — stay put.

Migration is restore-and-reingest: the old owner reconstructs each
moving segment byte-for-byte, the new owner deduplicates it into its
empty shard, and the recipe entry is rewritten.  A segment is at most
the router's segment size plus one chunk (``ECS·SD·5`` by default:
320 KiB at ECS 4 KiB, SD 16), so the whole-segment copy is already
bounded in RAM and needs no stream.  The old shard keeps
the chunk bytes (garbage collection's job), but drops the segment's
file manifest so ownership stays single-homed.  The report counts
what moved; ``benchmarks/bench_cluster_scaling.py`` prices the pass
from the two workers' snapshots, and the caller times its wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.cluster_recipe import SegmentPlacement
from .router import ClusterRouter

__all__ = ["RebalanceReport", "hottest_shard", "split_shard"]


@dataclass(frozen=True)
class RebalanceReport:
    """What one shard split did."""

    hot_node: str
    new_node: str
    segments_moved: int
    bytes_moved: int
    recipes_updated: int
    #: Chunk bytes still held by the hot shard after the split (freed
    #: only by garbage collection).
    residual_hot_bytes: int

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form for bench reports and logs."""
        return {
            "hot_node": self.hot_node,
            "new_node": self.new_node,
            "segments_moved": self.segments_moved,
            "bytes_moved": self.bytes_moved,
            "recipes_updated": self.recipes_updated,
            "residual_hot_bytes": self.residual_hot_bytes,
        }


def hottest_shard(router: ClusterRouter) -> str:
    """The worker holding the most chunk bytes (ties: lowest name)."""
    return min(
        sorted(router.workers),
        key=lambda name: (-router.workers[name].stored_chunk_bytes(), name),
    )


def split_shard(
    router: ClusterRouter,
    hot: str | None = None,
    new_node: str | None = None,
) -> RebalanceReport:
    """Join a new worker and migrate the hot shard's reclaimed segments."""
    hot = hot or hottest_shard(router)
    if hot not in router.workers:
        raise ValueError(f"unknown worker {hot!r}")
    if new_node is None:
        serial = len(router.workers)
        while f"worker-{serial:02d}" in router.workers:
            serial += 1
        new_node = f"worker-{serial:02d}"

    old_worker = router.workers[hot]
    new_worker = router.add_worker(new_node)

    moved_segments = 0
    moved_bytes = 0
    recipes_updated = 0
    for file_id in router.store.recipes.file_ids():
        recipe = router.store.recipes.get(file_id)
        changed = False
        updated: list[SegmentPlacement] = []
        for placement in recipe.segments:
            if (
                placement.node == hot
                and router.ring.route(placement.fingerprint) == new_node
            ):
                data = old_worker.restore_segment(placement.segment_id)
                new_worker.ingest_segment(placement.segment_id, data)
                old_worker.forget_segment(placement.segment_id)
                updated.append(
                    SegmentPlacement(
                        new_node, placement.segment_id, placement.size,
                        placement.fingerprint,
                    )
                )
                moved_segments += 1
                moved_bytes += placement.size
                changed = True
            else:
                updated.append(placement)
        if changed:
            router.store.recipes.put(
                type(recipe)(file_id=recipe.file_id, segments=tuple(updated))
            )
            recipes_updated += 1

    router.metrics.counter("cluster.rebalance.segments_moved").inc(moved_segments)
    router.metrics.counter("cluster.rebalance.bytes_moved").inc(moved_bytes)
    return RebalanceReport(
        hot_node=hot,
        new_node=new_node,
        segments_moved=moved_segments,
        bytes_moved=moved_bytes,
        recipes_updated=recipes_updated,
        residual_hot_bytes=old_worker.stored_chunk_bytes(),
    )
