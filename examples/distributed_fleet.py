#!/usr/bin/env python
"""Distributed fleet deduplication — sharded scale-out.

The paper motivates MHD with distributed backup deployments.  This
example shards the fleet by machine (one MHD shard worker per machine
over a shared store), compares the sharded fleet with a single global
node, and prints the scale-out trade: the makespan drops by roughly
the shard count, while duplicates shared *across* machines (the
common OS image) go unfound.  The fleet's store is a real one: the
last step reopens a shard and restores a file from it.

Run:  python examples/distributed_fleet.py [--ecs 2048] [--sd 16]
"""

import argparse

from repro import DedupConfig, MHDDeduplicator
from repro.analysis import DeviceModel, evaluate, format_table
from repro.cluster import ShardWorker, dedup_sharded, shard_by_machine
from repro.storage import MemoryBackend
from repro.workloads import small_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ecs", type=int, default=2048)
    parser.add_argument("--sd", type=int, default=16)
    args = parser.parse_args()

    files = small_corpus().files()
    total = sum(f.size for f in files)
    config = DedupConfig(ecs=args.ecs, sd=args.sd)
    device = DeviceModel()
    print(f"corpus: {len(files)} files, {total / 1e6:.1f} MB "
          f"(ECS={args.ecs}, SD={args.sd})\n")

    global_run = evaluate(MHDDeduplicator(config), files, device)
    store = MemoryBackend()
    fleet = dedup_sharded(files, algo="bf-mhd", config=config, device=device, backend=store)

    rows = [
        [
            "global (1 node)",
            f"{global_run.data_only_der:.3f}",
            f"{global_run.real_der:.3f}",
            f"{global_run.dedup_seconds:.1f}s",
            "1.00x",
        ],
        [
            f"sharded ({len(fleet.shards)} nodes)",
            f"{fleet.data_only_der:.3f}",
            f"{fleet.real_der:.3f}",
            f"{fleet.makespan_seconds:.1f}s",
            f"{global_run.dedup_seconds / fleet.makespan_seconds:.2f}x",
        ],
    ]
    print(format_table(
        ["deployment", "data DER", "real DER", "simulated makespan", "speedup"],
        rows,
    ))

    lost = global_run.stats.stored_chunk_bytes and (
        fleet.stored_chunk_bytes - global_run.stats.stored_chunk_bytes
    )
    print(f"\ncross-machine duplicates lost to sharding: {lost / 1e6:.1f} MB "
          f"(the shared OS image each node now stores once)")
    print("per shard:")
    for s in fleet.shards:
        print(f"  {s.shard}: data DER {s.stats.data_only_der:.3f}, "
              f"{s.dedup_seconds:.1f}s simulated")

    # Each shard lives under shard.<name>. on the shared store; a fresh
    # worker over it serves restores (and fsck) after the run.
    shard, shard_files = next(iter(shard_by_machine(files).items()))
    probe = shard_files[-1]
    worker = ShardWorker(shard, store, config=config)
    worker.warm_start()
    with probe.open() as reader:
        intact = worker.restore_segment(probe.file_id) == reader.read()
    print(f"\nrestore {probe.file_id} from shard {worker.name}: "
          f"{'OK' if intact else 'MISMATCH'}, fsck "
          f"{'clean' if worker.fsck().ok else 'DIRTY'}")


if __name__ == "__main__":
    main()
