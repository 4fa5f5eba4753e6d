"""Cluster, wall clock: what each deployment of the scaling bench takes to ingest.

``bench_cluster_scaling.py`` prices its deployments with the
``DeviceModel``: a fleet's makespan is its slowest shard, as if the
nodes ran concurrently.  In this repository they do not — a
``ClusterRouter``'s workers, and ``dedup_sharded``'s, are method calls
one after another in one process — so this script measures the wall
clock of the same runs, on the same corpus and settings
(``REPRO_BENCH_SCALE``, default ``small``; ECS 1024; bf-mhd on a
``MemoryBackend``), and writes ``BENCH_cluster_wall.json`` at the
repository root with the model's seconds beside each figure:

* ``deployments`` — one node (``MHDDeduplicator.process``), the
  hook-routed ring at 1/2/4/8 shards (every ``put_file`` plus
  ``finalize``) and the by-machine fleet (``dedup_sharded``):
  ``wall_s`` (median of ``--repeat`` runs, each run listed in
  ``wall_s_runs``), ``model_makespan_s`` and ``model_node_s``, and both
  speedups over one node (``wall_speedup``, ``model_speedup``);
* ``rebalance`` — one ``split_shard`` of a loaded 2-shard ring:
  ``wall_s`` (median; choosing the hot shard and the two stats
  snapshots the model needs are timed with it) beside ``model_s``.

One untimed round runs first; then the deployments of each repeat run
in turn, so drift on the host spreads over all of them.  This is kept
out of ``benchmarks/results/``, whose reports are deterministic.  Run
(it finds ``src/`` beside itself)::

    python benchmarks/bench_cluster_wall.py [--repeat N] [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench_cluster_scaling import (  # noqa: E402
    ECS,
    SHARD_COUNTS,
    makespan,
    node_seconds,
    split_hottest,
)
from conftest import DEVICE, SCALE, SD_MAIN, bench_corpus  # noqa: E402
from repro.cluster import ClusterConfig, ClusterRouter, dedup_sharded  # noqa: E402
from repro.core import DedupConfig, MHDDeduplicator  # noqa: E402
from repro.storage import MemoryBackend  # noqa: E402

#: The scaling bench's settings.
CONFIG = DedupConfig(ecs=ECS, sd=SD_MAIN)


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _ring(files: list, workers: int) -> ClusterRouter:
    router = ClusterRouter(MemoryBackend(), workers=workers, config=ClusterConfig(dedup=CONFIG))
    for f in files:
        router.put_file(f)
    return router


def deployments(files: list) -> dict[str, Callable[[], tuple[float, float, float]]]:
    """Name -> one timed run returning (wall seconds, model makespan,
    model node-seconds).  Each wall covers building the deployment,
    ingesting every file and finalizing."""

    def single():
        wall, stats = _timed(lambda: MHDDeduplicator(CONFIG).process(files))
        seconds = DEVICE.dedup_time(stats)
        return wall, seconds, seconds

    def ring(n: int):
        def run():
            wall, fleet = _timed(lambda: _ring(files, n).finalize())
            return wall, makespan(fleet), node_seconds(fleet)

        return run

    def by_machine():
        wall, fleet = _timed(lambda: dedup_sharded(files, algo="bf-mhd", config=CONFIG))
        return wall, makespan(fleet), node_seconds(fleet)

    runs = {"single": single}
    runs.update({f"ring-{n}": ring(n) for n in SHARD_COUNTS})
    runs["by-machine"] = by_machine
    return runs


def rebalance(files: list) -> tuple[float, float, dict]:
    """One timed split of a loaded 2-shard ring (the load is untimed)."""
    router = _ring(files, 2)
    wall, (report, model_s) = _timed(lambda: split_hottest(router))
    return wall, model_s, report.as_dict()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per row (median)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cluster_wall.json"))
    args = parser.parse_args(argv)
    files = bench_corpus().files()
    runs = deployments(files)
    walls: dict[str, list[float]] = {name: [] for name in runs}
    model: dict[str, tuple[float, float]] = {}
    split_walls: list[float] = []
    for run in runs.values():
        run()  # warm-up: lazy set-up and first-touch allocation
    for _ in range(args.repeat):
        for name, run in runs.items():
            wall, makespan_s, node_s = run()
            walls[name].append(wall)
            model[name] = (makespan_s, node_s)
        wall, split_model_s, moved = rebalance(files)
        split_walls.append(wall)

    single_wall = statistics.median(walls["single"])
    single_model = model["single"][0]
    rows = {}
    for name in runs:
        wall = statistics.median(walls[name])
        makespan_s, node_s = model[name]
        rows[name] = {
            "wall_s": round(wall, 4),
            "wall_s_runs": [round(w, 4) for w in walls[name]],
            "model_makespan_s": round(makespan_s, 2),
            "model_node_s": round(node_s, 2),
            "wall_speedup": round(single_wall / wall, 2),
            "model_speedup": round(single_model / makespan_s, 2),
        }
    result = {
        "bench": "cluster_wall",
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "corpus": {
            "scale": SCALE,
            "files": len(files),
            "bytes": sum(f.size for f in files),
        },
        "config": {"algorithm": "bf-mhd", "ecs": ECS, "sd": SD_MAIN, "backend": "MemoryBackend"},
        "repeat": args.repeat,
        "deployments": rows,
        "rebalance": {
            "wall_s": round(statistics.median(split_walls), 4),
            "wall_s_runs": [round(w, 4) for w in split_walls],
            "model_s": round(split_model_s, 2),
            **moved,
        },
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
