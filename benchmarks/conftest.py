"""Shared benchmark harness.

Every bench regenerates one of the paper's tables or figures on the
synthetic corpus (DESIGN.md §4 maps experiment → bench).  Scale is
controlled by ``REPRO_BENCH_SCALE``:

* ``tiny``  — ~5 MB corpus, SD 8/4/2 (smoke-test the harness),
* ``small`` — ~40 MB corpus, SD 32/16/8 (default; minutes),
* ``large`` — ~160 MB corpus, SD 64/32/16 (longer, closer shapes).

SD values are scaled stand-ins for the paper's 1000/500/250 (see
DESIGN.md §5); the Table I/II formula benches additionally evaluate
the paper's literal SD=1000 symbolically.

Deduplication runs are memoized per (algorithm, ecs, sd) in a session
cache so figure benches that share grid points don't recompute them.
Reports are printed and written to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import AlgorithmRun, DeviceModel, evaluate
from repro.core import DedupConfig
from repro.registry import available, resolve
from repro.workloads import BackupCorpus, CorpusConfig, small_corpus, tiny_corpus

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")


#: ECS sweep used throughout the paper's evaluation.
ECS_VALUES = [512, 1024, 2048, 4096, 8192]

#: SD stand-ins for the paper's {1000, 500, 250} at each scale.
SD_BY_SCALE = {"tiny": [8, 4, 2], "small": [32, 16, 8], "large": [64, 32, 16]}
SD_VALUES = SD_BY_SCALE[SCALE]
SD_MAIN = SD_VALUES[0]

#: Name → deduplicator class, straight from the shared registry (the
#: benches index it like a dict, so materialise one).
ALGORITHMS = {name: resolve(name) for name in available()}

#: The four algorithms the paper's figures compare (CDC appears only
#: in Tables I/II).
FIGURE_ALGOS = ["bf-mhd", "bimodal", "subchunk", "sparse-indexing"]

DEVICE = DeviceModel()


def bench_corpus() -> BackupCorpus:
    """The corpus of ``REPRO_BENCH_SCALE``."""
    if SCALE == "tiny":
        return tiny_corpus()
    if SCALE == "large":
        return BackupCorpus(
            CorpusConfig(
                machines=6,
                generations=6,
                os_count=2,
                os_bytes=1 << 21,
                app_bytes=1 << 19,
                user_bytes=1 << 20,
                mean_file=1 << 16,
            )
        )
    return small_corpus()


@pytest.fixture(scope="session")
def corpus_files():
    return bench_corpus().files()


@pytest.fixture(scope="session")
def run_cache():
    return {}


@pytest.fixture(scope="session")
def run_grid(corpus_files, run_cache):
    """Memoized (algorithm, ecs, sd) -> AlgorithmRun."""

    def run(algo: str, ecs: int, sd: int, **kw) -> AlgorithmRun:
        """Keyword args prefixed ``cfg_`` override DedupConfig fields;
        the rest go to the deduplicator constructor (ablations)."""
        key = (algo, ecs, sd, tuple(sorted(kw.items())))
        if key not in run_cache:
            cfg_kw = {k[4:]: v for k, v in kw.items() if k.startswith("cfg_")}
            ctor_kw = {k: v for k, v in kw.items() if not k.startswith("cfg_")}
            cfg_kw.setdefault("bloom_bytes", 1 << 20)
            cfg_kw.setdefault("cache_manifests", 64)
            config = DedupConfig(ecs=ecs, sd=sd, **cfg_kw)
            dedup = ALGORITHMS[algo](config, **ctor_kw)
            run_cache[key] = evaluate(dedup, corpus_files, DEVICE)
        return run_cache[key]

    return run


_GIT_SHA: str | None = None


def git_sha() -> str:
    """The repository HEAD commit (cached; ``unknown`` outside git)."""
    global _GIT_SHA
    if _GIT_SHA is None:
        import subprocess

        try:
            _GIT_SHA = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = "unknown"
    return _GIT_SHA


def run_record(run: AlgorithmRun) -> dict:
    """One run's machine-readable record: stats + device-model seconds."""
    return {
        "stats": run.stats.as_dict(),
        "dedup_seconds": run.dedup_seconds,
        "throughput_ratio": run.throughput_ratio,
    }


def write_report(name: str, text: str, runs=None, extra=None) -> None:
    """Persist a bench's table/series output and echo it.

    Besides ``results/<name>.txt``, every call writes a machine-
    readable twin ``results/BENCH_<name>.json`` carrying the bench
    name, corpus scale and git SHA — plus per-run statistics and
    device-model seconds when the bench passes its runs.

    Parameters
    ----------
    runs:
        Optional ``{label: AlgorithmRun}`` mapping; each run is
        serialised via :func:`run_record`.
    extra:
        Optional JSON-safe payload for bench-specific series (figure
        axes, symbolic predictions, ...).
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[report written to {path}]")
    payload = {
        "bench": name,
        "scale": SCALE,
        "git_sha": git_sha(),
    }
    if runs:
        payload["runs"] = {label: run_record(r) for label, r in runs.items()}
    if extra is not None:
        payload["extra"] = extra
    write_json(f"BENCH_{name}", payload)


def write_json(name: str, payload) -> None:
    """Persist machine-readable results next to the text report."""
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
