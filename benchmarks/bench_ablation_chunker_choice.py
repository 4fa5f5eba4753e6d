"""Ablation: chunking algorithm vs deduplication quality.

The paper's introduction motivates CDC with fixed-size chunking's
*boundary-shifting problem*.  This bench makes that quantitative on an
insert-heavy backup stream (every edit shifts all later bytes): both
content-defined chunkers (Karp–Rabin and TTTD) keep finding duplicates
across generations; fixed-size chunking loses almost all of them.
"""

import numpy as np
import pytest

from conftest import DEVICE, write_report
from repro.analysis import evaluate, format_table
from repro.chunking import FixedChunker, TTTDChunker, VectorizedChunker
from repro.core import DedupConfig, MHDDeduplicator
from repro.workloads import BackupFile, EditConfig, mutate

CHUNKERS = [VectorizedChunker, TTTDChunker, FixedChunker]


@pytest.fixture(scope="module")
def shifting_corpus():
    """8 generations of a 2 MB image, edited by pure insertions."""
    rng = np.random.default_rng(1234)
    edits = EditConfig(change_rate=0.03, insert_fraction=1.0, delete_fraction=0.0)
    content = rng.integers(0, 256, size=2 << 20, dtype=np.uint8).tobytes()
    files = []
    for g in range(8):
        files.append(BackupFile(f"gen{g}", content))
        content = mutate(content, rng, edits)
    return files


@pytest.fixture(scope="module")
def runs(shifting_corpus):
    out = {}
    for cls in CHUNKERS:
        dedup = MHDDeduplicator(DedupConfig(ecs=1024, sd=8), chunker_cls=cls)
        out[cls.__name__] = evaluate(dedup, shifting_corpus, DEVICE)
    return out


def test_chunker_choice(benchmark, runs, shifting_corpus):
    def build() -> str:
        total = sum(f.size for f in shifting_corpus)
        rows = [
            [
                name,
                f"{r.stats.data_only_der:.3f}",
                f"{r.stats.real_der:.3f}",
                f"{(total - r.stats.stored_chunk_bytes) / total:.1%}",
            ]
            for name, r in runs.items()
        ]
        return format_table(
            ["chunker", "data DER", "real DER", "bytes eliminated"],
            rows,
            title="chunker ablation on an insert-heavy stream (BF-MHD, ECS=1024, SD=8)",
        )

    report = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("ablation_chunker_choice", report, runs=runs)
    # The boundary-shifting claim: every CDC chunker beats fixed-size
    # by a wide margin on shifting edits.
    fixed = runs["FixedChunker"].stats.data_only_der
    for name in ("VectorizedChunker", "TTTDChunker"):
        assert runs[name].stats.data_only_der > fixed * 1.5, name


def test_cdc_chunkers_roughly_equivalent(runs):
    """Which CDC hash you use barely matters; that you use one does."""
    ders = [runs[n].stats.data_only_der for n in ("VectorizedChunker", "TTTDChunker")]
    assert max(ders) / min(ders) < 1.2
