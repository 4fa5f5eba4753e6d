"""Fingerprint-routed deduplication cluster.

The "one system, N workers" layer over the single-process pipeline:
stateless :class:`~repro.cluster.worker.ShardWorker`\\ s own manifest
shards on a shared backend, a
:class:`~repro.cluster.router.ClusterRouter` routes incoming segments
by their sampled hooks' votes over a consistent-hash
:class:`~repro.cluster.ring.HashRing`, and
:func:`~repro.cluster.rebalance.split_shard` grows the fleet by
splitting the hottest shard, reporting what moved.
:func:`~repro.cluster.fleet.dedup_sharded` is the other partitioning —
whole files by machine — on the same workers, reporting the same
:class:`~repro.cluster.fleet.FleetResult`: per-shard ``DedupStats``,
no time model.

See DESIGN.md §8 for the architecture (ring, routing key, rebalance,
failure model), ``benchmarks/bench_cluster_scaling.py`` for the
cross-shard DER / routing RAM trade (the simulated-time model is
applied there) and ``benchmarks/bench_cluster_wall.py`` for the wall
clock.
"""

from .fingerprint import hooks_of, representative, route_segment, routing_key
from .fleet import FleetResult, ShardResult, dedup_sharded, fleet_result, shard_by_machine
from .rebalance import RebalanceReport, hottest_shard, split_shard
from .ring import DEFAULT_VNODES, HashRing
from ..storage.cluster_recipe import (
    META_NAMESPACE,
    RECIPE_NAMESPACE,
    ClusterRecipe,
    SegmentPlacement,
)
from .router import ClusterConfig, ClusterError, ClusterRouter
from .worker import SHARD_PREFIX, ShardWorker, shard_prefix, validate_worker_name

__all__ = [
    "DEFAULT_VNODES",
    "META_NAMESPACE",
    "RECIPE_NAMESPACE",
    "SHARD_PREFIX",
    "ClusterConfig",
    "ClusterError",
    "ClusterRecipe",
    "ClusterRouter",
    "FleetResult",
    "HashRing",
    "RebalanceReport",
    "SegmentPlacement",
    "ShardResult",
    "ShardWorker",
    "dedup_sharded",
    "fleet_result",
    "hooks_of",
    "hottest_shard",
    "representative",
    "route_segment",
    "routing_key",
    "shard_by_machine",
    "shard_prefix",
    "split_shard",
    "validate_worker_name",
]
