"""The whole path at ``--scale smoke``: plumbing only, never numbers."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import REPO_ROOT
from e2ebench.settings import END_TO_END, EXACT_COUNTS, PER_LAYER

E2E_DIR = Path(__file__).resolve().parents[1]


def run(*args: str, script: str = "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(E2E_DIR / script), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=180,
    )  # fmt: skip


def smoke(workload: str, seed: int, trace: int, out: Path) -> dict:
    proc = run("--workload", workload, "--seed", str(seed), "--scale", "smoke",
               "--trace", str(trace), "--out", str(out))  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["svc-files-2t", "cluster-4w"])
def test_last_line_is_the_drivers_json(tmp_path, workload):
    result = smoke(workload, 3, 0, tmp_path / "r.json")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for m in END_TO_END:
        value = result["metrics"][m.name]
        assert value["unit"] == m.unit and value["value"] > 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["scale"] == "smoke" and doc["seed"] == 3


def test_exact_counts_repeat_for_a_seed_and_move_with_it(tmp_path):
    first = smoke("files-coldcache", 2013, 1, tmp_path / "a.json")
    again = smoke("files-coldcache", 2013, 1, tmp_path / "b.json")
    other = smoke("files-coldcache", 7, 1, tmp_path / "c.json")
    assert list(first["metrics"]) == [m.name for m in PER_LAYER]
    exact = [n for n in EXACT_COUNTS if n in first["metrics"]]
    assert len(exact) > 15
    assert {n: first["metrics"][n] for n in exact} == {n: again["metrics"][n] for n in exact}
    moved = [n for n in exact if first["metrics"][n] != other["metrics"][n]]
    assert "chunking.chunks" in moved and "storage.puts" in moved
    # Same bytes in, whatever the seed: the shape is not drawn from it.
    assert first["metrics"]["workloads.corpus_mb"] == other["metrics"]["workloads.corpus_mb"]
    assert first["correct"] and other["correct"]

    # compare.py on two same-seed files: nothing regresses, counts identical.
    proc = run(str(tmp_path / "a.json"), str(tmp_path / "b.json"), script="compare.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "exact counts: identical" in proc.stdout
    # A traced-only file carries its own operation counts.
    entry = json.loads((tmp_path / "a.json").read_text())["workloads"]["files-coldcache"]
    assert (entry["attempted"], entry["failed"]) == (first["attempted"], 0)


def test_failures_of_both_children_are_summed():
    from run import merge_entry

    entry: dict = {}
    merge_entry(entry, {"end_to_end": {}, "attempted": 10, "failed": 1, "ops_failed_share": 0.1})
    merge_entry(entry, {"per_layer": {}, "attempted": 30, "failed": 0, "ops_failed_share": 0.0})
    assert (entry["attempted"], entry["failed"], entry["ops_failed_share"]) == (40, 1, 0.025)
    assert "end_to_end" in entry and "per_layer" in entry
