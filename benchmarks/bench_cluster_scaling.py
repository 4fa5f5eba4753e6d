"""Cluster scaling — two partitionings of one fleet vs one global node.

Quantifies the distributed-backup trade the paper's introduction
motivates: splitting the index across nodes cuts the simulated
makespan, but duplicates shared *across* shards are no longer found.  Both
partitionings run on the same shard workers and report the same
``FleetResult``, so their rows are directly comparable:

* **ring-routed** — segments are routed by their sampled hooks' votes
  over the consistent-hash ring, so similar segments land on the same
  shard *regardless of source machine*; swept over the shard count;
* **by machine** — whole files go to their machine's shard (one node
  per machine, no routing table).

Reported per row: the cross-shard DER loss relative to a single global
node, the makespan/aggregate trade, the routing-table RAM the
coordinator holds (Table III-style), plus the cost of one rebalance
pass (splitting the hottest shard onto a fresh worker).

Every second here is ``DEVICE.dedup_time`` of a shard's ``DedupStats``
— the simulated-time model, applied by this bench and not by
``repro.cluster``: a fleet's makespan is its slowest shard (nodes
modelled as concurrent), its node-seconds the sum.  The workers
actually run one after another in one process, so the wall clock
disagrees; ``bench_cluster_wall.py`` measures it beside these model
seconds (``BENCH_cluster_wall.json``), kept out of this deterministic
report.
"""

import pytest

from conftest import DEVICE, SD_MAIN, write_report
from repro.analysis import evaluate, format_table
from repro.cluster import (
    ClusterConfig,
    ClusterRouter,
    RebalanceReport,
    dedup_sharded,
    hottest_shard,
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


def shard_seconds(fleet) -> dict[str, float]:
    """Each shard's simulated seconds, by shard name."""
    return {s.shard: DEVICE.dedup_time(s.stats) for s in fleet.shards}


def makespan(fleet) -> float:
    """Simulated fleet wall time: the slowest shard."""
    return max(shard_seconds(fleet).values(), default=0.0)


def node_seconds(fleet) -> float:
    """Simulated node-seconds: the cost, not the latency."""
    return sum(shard_seconds(fleet).values())


def split_hottest(router) -> tuple[RebalanceReport, float]:
    """Split the hottest shard: the report, and the pass's simulated
    seconds — the hot and new workers' modelled time after the split
    minus the hot worker's before it (its restore reads plus the new
    shard's dedup work)."""
    hot = hottest_shard(router)
    before = DEVICE.dedup_time(router.workers[hot].snapshot())
    report = split_shard(router, hot=hot)
    after = sum(
        DEVICE.dedup_time(router.workers[name].snapshot())
        for name in (report.hot_node, report.new_node)
    )
    return report, after - before


@pytest.fixture(scope="module")
def results(corpus_files):
    config = DedupConfig(ecs=ECS, sd=SD_MAIN)
    single = evaluate(MHDDeduplicator(config), corpus_files, DEVICE)

    sweeps = {}
    for n in SHARD_COUNTS:
        router = ClusterRouter(MemoryBackend(), workers=n, config=_cluster_config())
        _ingest_all(router, corpus_files)
        fleet = router.finalize()
        sweeps[n] = {
            "fleet": fleet,
            "routing_table_bytes": router.ring.routing_table_bytes(),
            "ring": router.ring.describe(),
            "metrics": router.metrics.filtered("cluster.").as_dict(),
        }

    by_machine = dedup_sharded(corpus_files, algo="bf-mhd", config=config)

    # One rebalance pass: split the hottest of 2 shards onto a third.
    router = ClusterRouter(MemoryBackend(), workers=2, config=_cluster_config())
    _ingest_all(router, corpus_files)
    rebalance = split_hottest(router)
    # Migration must never cost restorability.
    probe = corpus_files[0]
    with probe.open() as r:
        assert router.restore_file(probe.file_id) == r.read()
    return single, sweeps, rebalance, by_machine


def test_cluster_scaling(benchmark, results, corpus_files):
    single, sweeps, (rebalance, rebalance_seconds), by_machine = results
    machine_seconds = shard_seconds(by_machine)

    def loss(fleet) -> float:
        return 1.0 - fleet.data_only_der / single.data_only_der

    def row(label, fleet, table_ram) -> list[str]:
        return [
            label,
            f"{fleet.data_only_der:.3f}",
            f"{fleet.real_der:.3f}",
            f"{loss(fleet):.1%}",
            f"{node_seconds(fleet):.2f}s",
            f"{makespan(fleet):.2f}s",
            str(table_ram),
        ]

    def summary(fleet) -> dict:
        return {
            "data_only_der": fleet.data_only_der,
            "real_der": fleet.real_der,
            "makespan_seconds": makespan(fleet),
            "aggregate_seconds": node_seconds(fleet),
            "speedup": node_seconds(fleet) / makespan(fleet),
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
            [s.shard, f"{s.stats.data_only_der:.3f}", f"{machine_seconds[s.shard]:.2f}s"]
            for s in by_machine.shards
        ]
        reb = [
            [
                rebalance.hot_node,
                rebalance.new_node,
                str(rebalance.segments_moved),
                f"{rebalance.bytes_moved / 1e6:.2f}MB",
                str(rebalance.recipes_updated),
                f"{rebalance_seconds:.2f}s",
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
            "rebalance": {**rebalance.as_dict(), "seconds": rebalance_seconds},
            "by_machine": {
                **summary(by_machine),
                "der_loss": loss(by_machine),
                "shards": {
                    s.shard: {
                        "dedup_seconds": machine_seconds[s.shard],
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
    # More shards: shorter simulated makespan, cheaper per-node work.
    assert makespan(sweeps[8]["fleet"]) < makespan(sweeps[1]["fleet"])
    # Table RAM grows linearly in vnode points — still tiny.
    assert sweeps[8]["routing_table_bytes"] < 64 * 1024
    # By machine: one shard per machine, the same trade without a ring.
    assert len(by_machine.shards) == len(shard_by_machine(corpus_files))
    assert makespan(by_machine) < single.dedup_seconds
    assert by_machine.data_only_der <= single.data_only_der
    assert node_seconds(by_machine) / makespan(by_machine) > 1.5


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
    _single, sweeps, (rebalance, rebalance_seconds), _ = results
    total_segments = sweeps[2]["metrics"]["cluster.route.segments"]
    assert 0 < rebalance.segments_moved < total_segments
    assert rebalance_seconds >= 0.0
