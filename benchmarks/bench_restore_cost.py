"""Restore cost — fragmentation across the six algorithms.

Beyond the paper (which measures write throughput only): how much does
each algorithm's metadata layout tax *recovery*?  One seek per
FileManifest extent; MHD's run-coalescing and Bimodal's surviving big
chunks should restore fastest, per-chunk layouts slowest.
"""

import pytest

from conftest import ALGORITHMS, DEVICE, SD_MAIN, write_report
from repro.analysis import format_table, measure_restore_cost
from repro.core import DedupConfig

ECS = 1024

ALGOS = [
    "cdc",
    "bimodal",
    "subchunk",
    "sparse-indexing",
    "bf-mhd",
    "si-mhd",
]


@pytest.fixture(scope="module")
def costs(corpus_files):
    ids = [f.file_id for f in corpus_files]
    out = {}
    for algo in ALGOS:
        dedup = ALGORITHMS[algo](DedupConfig(ecs=ECS, sd=SD_MAIN))
        dedup.process(corpus_files)
        out[algo] = measure_restore_cost(dedup, ids, DEVICE)
    return out


def test_restore_cost_comparison(benchmark, costs):
    def build() -> str:
        rows = []
        for algo, c in costs.items():
            rows.append(
                [
                    algo,
                    f"{c.extents_per_file:.2f}",
                    f"{c.extents_per_mb:.2f}",
                    f"{c.distinct_containers:,}",
                    f"{c.throughput_bps / 1e6:.1f} MB/s",
                    f"{c.slowdown:.2f}x",
                ]
            )
        return format_table(
            ["algorithm", "extents/file", "extents/MB", "containers",
             "restore tput", "slowdown vs plain read"],
            rows,
            title=f"restore fragmentation (full corpus, ECS={ECS}, SD={SD_MAIN})",
        )

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report(
        "restore_cost",
        report,
        extra={
            "costs": {
                algo: {
                    "extents": c.extents,
                    "extents_per_file": c.extents_per_file,
                    "extents_per_mb": c.extents_per_mb,
                    "distinct_containers": c.distinct_containers,
                    "throughput_bps": c.throughput_bps,
                    "slowdown": c.slowdown,
                    "restored_bytes": c.restored_bytes,
                }
                for algo, c in costs.items()
            },
        },
    )
    # Every algorithm restores the same logical bytes.
    sizes = {c.restored_bytes for c in costs.values()}
    assert len(sizes) == 1
    # MHD restores no more fragmented than plain CDC.
    assert costs["bf-mhd"].extents <= costs["cdc"].extents
    # Dedup never restores faster than a plain sequential read.
    for algo, c in costs.items():
        assert c.slowdown >= 0.99, algo
