"""BENCHMARK.json says what the benchmark's own settings say."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from e2ebench import REPO_ROOT
from e2ebench.settings import END_TO_END, GATED_WORKLOADS, PER_LAYER, WORKLOADS

E2E_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_command_and_paths():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == [str(E2E_DIR.relative_to(REPO_ROOT))]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_settings():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in GATED_WORKLOADS]
    for spec, w in zip(SPEC["workloads"], GATED_WORKLOADS):
        assert set(spec) == {"name", "why"}
        assert spec["why"] == w.why and len(w.why) <= 200 and "\n" not in w.why


def test_metrics_match_settings():
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.driver_bound}
        for m in END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    for m in END_TO_END + PER_LAYER:
        assert NAME.match(m.name) and UNIT.match(m.unit) and m.better in ("higher", "lower")
    # No bound is looser for one seed than across seeds.
    assert all(0 < m.bound <= m.driver_bound <= 0.25 for m in END_TO_END)
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.driver_bound == max(m.driver_bound for m in END_TO_END)
    # A speed change must leave what is stored inside 1 % at equal seed.
    space = {m.name: m.bound for m in END_TO_END if m.unit == "ratio"}
    assert space == {"stored_bytes_per_user_byte": 0.01, "metadata_ratio": 0.01}
    assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16 and 2 <= len(GATED_WORKLOADS) <= 8


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark it fails before any result."""
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E_DIR,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "images-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no program to measure" in proc.stderr
