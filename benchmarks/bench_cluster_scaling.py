"""Cluster scaling — two partitionings of one fleet vs one global node.

Quantifies the distributed-backup trade the paper's introduction
motivates: splitting the index across nodes cuts the makespan, but
duplicates shared *across* shards are no longer found.  Both
partitionings run on the same shard workers and report the same
``FleetResult``, so their rows are directly comparable:

* **ring-routed** — segments are routed by their sampled hooks' votes
  over the consistent-hash ring, so similar segments land on the same
  shard *regardless of source machine*; swept over the shard count;
* **by machine** — whole files go to their machine's shard (one node
  per machine, no routing table).

Reported per row: the cross-shard DER loss relative to a single global
node, the makespan/aggregate trade, the routing-table RAM the
coordinator holds (Table III-style), plus the measured cost of one
rebalance pass (splitting the hottest shard onto a fresh worker).
"""

import pytest

from conftest import DEVICE, SD_MAIN, write_report
from repro.analysis import evaluate, format_table
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    dedup_sharded,
    shard_by_machine,
    split_shard,
)
from repro.core import DedupConfig, MHDDeduplicator
from repro.storage import MemoryBackend

ECS = 1024
SHARD_COUNTS = [1, 2, 4, 8]


def _cluster_config():
    return ClusterConfig(dedup=DedupConfig(ecs=ECS, sd=SD_MAIN))


def _ingest_all(router, files):
    for f in files:
        router.put_file(f)


@pytest.fixture(scope="module")
def results(corpus_files):
    config = DedupConfig(ecs=ECS, sd=SD_MAIN)
    single = evaluate(MHDDeduplicator(config), corpus_files, DEVICE)

    sweeps = {}
    for n in SHARD_COUNTS:
        router = ClusterRouter(
            MemoryBackend(), workers=n, config=_cluster_config(), device=DEVICE
        )
        _ingest_all(router, corpus_files)
        fleet = router.finalize()
        sweeps[n] = {
            "fleet": fleet,
            "routing_table_bytes": router.ring.routing_table_bytes(),
            "ring": router.ring.describe(),
            "metrics": router.metrics.filtered("cluster.").as_dict(),
        }

    by_machine = dedup_sharded(corpus_files, algo="bf-mhd", config=config, device=DEVICE)

    # One rebalance pass: split the hottest of 2 shards onto a third.
    router = ClusterRouter(
        MemoryBackend(), workers=2, config=_cluster_config(), device=DEVICE
    )
    _ingest_all(router, corpus_files)
    rebalance = split_shard(router)
    # Migration must never cost restorability.
    probe = corpus_files[0]
    with probe.open() as r:
        assert router.restore_file(probe.file_id) == r.read()
    return single, sweeps, rebalance, by_machine


def test_cluster_scaling(benchmark, results, corpus_files):
    single, sweeps, rebalance, by_machine = results

    def loss(fleet) -> float:
        return 1.0 - fleet.data_only_der / single.data_only_der

    def row(label, fleet, table_ram) -> list[str]:
        return [
            label,
            f"{fleet.data_only_der:.3f}",
            f"{fleet.real_der:.3f}",
            f"{loss(fleet):.1%}",
            f"{fleet.aggregate_seconds:.2f}s",
            f"{fleet.makespan_seconds:.2f}s",
            str(table_ram),
        ]

    def summary(fleet) -> dict:
        return {
            "data_only_der": fleet.data_only_der,
            "real_der": fleet.real_der,
            "makespan_seconds": fleet.makespan_seconds,
            "aggregate_seconds": fleet.aggregate_seconds,
            "speedup": fleet.speedup,
        }

    def build() -> str:
        rows = [
            [
                "global (1 node)",
                f"{single.data_only_der:.3f}",
                f"{single.real_der:.3f}",
                "0.0%",
                f"{single.dedup_seconds:.2f}s",
                f"{single.dedup_seconds:.2f}s",
                "-",
            ]
        ]
        for n in SHARD_COUNTS:
            sweep = sweeps[n]
            rows.append(row(f"cluster ({n} shards)", sweep["fleet"], sweep["routing_table_bytes"]))
        rows.append(row(f"by machine ({len(by_machine.shards)} shards)", by_machine, "-"))
        per_machine = [
            [s.shard, f"{s.stats.data_only_der:.3f}", f"{s.dedup_seconds:.2f}s"]
            for s in by_machine.shards
        ]
        reb = [
            [
                rebalance.hot_node,
                rebalance.new_node,
                str(rebalance.segments_moved),
                f"{rebalance.bytes_moved / 1e6:.2f}MB",
                str(rebalance.recipes_updated),
                f"{rebalance.seconds:.2f}s",
            ]
        ]
        return (
            format_table(
                ["deployment", "data DER", "real DER", "DER loss",
                 "node-seconds", "makespan", "table RAM"],
                rows,
                title=f"cluster scaling (BF-MHD, ECS={ECS}, SD={SD_MAIN})",
            )
            + "\n\n"
            + format_table(
                ["hot", "new", "segments", "bytes", "recipes", "cost"],
                reb,
                title="rebalance: split hottest shard",
            )
            + "\n\n"
            + format_table(
                ["shard", "data DER", "time"], per_machine, title="by machine: per shard"
            )
        )

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report(
        "cluster_scaling",
        report,
        runs={"global": single},
        extra={
            "shard_counts": SHARD_COUNTS,
            "der_loss": {str(n): loss(sweeps[n]["fleet"]) for n in SHARD_COUNTS},
            "clusters": {
                str(n): {
                    **summary(sweeps[n]["fleet"]),
                    "routing_table_bytes": sweeps[n]["routing_table_bytes"],
                    "ring": sweeps[n]["ring"],
                    "metrics": sweeps[n]["metrics"],
                }
                for n in SHARD_COUNTS
            },
            "rebalance": rebalance.as_dict(),
            "by_machine": {
                **summary(by_machine),
                "der_loss": loss(by_machine),
                "shards": {
                    s.shard: {
                        "dedup_seconds": s.dedup_seconds,
                        "data_only_der": s.stats.data_only_der,
                    }
                    for s in by_machine.shards
                },
            },
        },
    )

    # Routing loses only cross-shard duplicates, never correctness.
    for n in SHARD_COUNTS:
        assert sweeps[n]["fleet"].data_only_der <= single.data_only_der * 1.001
    # More shards: shorter makespan, cheaper per-node work.
    assert sweeps[8]["fleet"].makespan_seconds < sweeps[1]["fleet"].makespan_seconds
    # Table RAM grows linearly in vnode points — still tiny.
    assert sweeps[8]["routing_table_bytes"] < 64 * 1024
    # By machine: one shard per machine, the same trade without a ring.
    assert len(by_machine.shards) == len(shard_by_machine(corpus_files))
    assert by_machine.makespan_seconds < single.dedup_seconds
    assert by_machine.data_only_der <= single.data_only_der
    assert by_machine.speedup > 1.5


def test_cluster_never_beats_global(results):
    """Splitting the index can only lose cross-shard duplicates, so the
    DER loss is non-negative at every shard count.  (It is *not*
    monotone in the shard count: fingerprint routing can regroup
    similar segments when arcs shift, recovering some loss.)"""
    single, sweeps, _, _ = results
    for n in SHARD_COUNTS:
        loss = 1.0 - sweeps[n]["fleet"].data_only_der / single.data_only_der
        assert loss >= -0.001


def test_rebalance_cost_is_bounded(results):
    """Consistent hashing: one join moves roughly 1/(n+1) of the hot
    shard's segments, not the whole keyspace."""
    _single, sweeps, rebalance, _ = results
    total_segments = sweeps[2]["metrics"]["cluster.route.segments"]
    assert 0 < rebalance.segments_moved < total_segments
    assert rebalance.seconds >= 0.0
