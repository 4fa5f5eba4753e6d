"""Extension comparison — all six algorithms on one corpus.

Beyond the paper's four evaluated algorithms and the CDC baseline,
this bench adds the paper's named-but-unevaluated SI-MHD variant, on
the same corpus and granularity.  Columns mirror the Fig. 8 summary
plus a peak-RAM column.
"""

import pytest

from conftest import DEVICE, SD_MAIN, corpus_files, write_report
from repro.analysis import evaluate, format_table
from repro.baselines import (
    BimodalDeduplicator,
    CDCDeduplicator,
    SparseIndexingDeduplicator,
    SubChunkDeduplicator,
)
from repro.core import DedupConfig, MHDDeduplicator, SIMHDDeduplicator

ECS = 1024

ALL = [
    CDCDeduplicator,
    BimodalDeduplicator,
    SubChunkDeduplicator,
    SparseIndexingDeduplicator,
    MHDDeduplicator,
    SIMHDDeduplicator,
]


@pytest.fixture(scope="module")
def runs(corpus_files):
    out = {}
    for cls in ALL:
        out[cls.name] = evaluate(cls(DedupConfig(ecs=ECS, sd=SD_MAIN)), corpus_files, DEVICE)
    return out


def test_extensions_comparison(benchmark, runs):
    def build() -> str:
        rows = []
        for name, run in runs.items():
            s = run.stats
            rows.append(
                [
                    name,
                    f"{s.data_only_der:.3f}",
                    f"{s.real_der:.3f}",
                    f"{s.metadata_ratio:.2%}",
                    f"{s.io.count():,}",
                    f"{run.throughput_ratio:.3f}",
                    f"{s.peak_ram_bytes / 1024:.0f} KB",
                ]
            )
        return format_table(
            ["algorithm", "data DER", "real DER", "metadata", "disk IOs",
             "tput ratio", "peak RAM"],
            rows,
            title=f"six-algorithm comparison (ECS={ECS}, SD={SD_MAIN})",
        )

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report(
        "extensions_comparison",
        report,
        runs=runs,
        extra={"ecs": ECS, "sd": SD_MAIN},
    )


def test_si_mhd_fewer_ios_same_dedup(runs):
    """SI-MHD trades hook RAM for the BF-MHD hook-query disk traffic."""
    bf_run, si_run = runs["bf-mhd"], runs["si-mhd"]
    assert si_run.stats.stored_chunk_bytes == bf_run.stats.stored_chunk_bytes
    assert si_run.stats.io.count() < bf_run.stats.io.count()
    assert si_run.throughput_ratio >= bf_run.throughput_ratio

