"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; a broken example is a
documentation bug.  Each is run in-process with scaled-down arguments
where supported.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert names == {
        "quickstart.py",
        "fleet_backup.py",
        "algorithm_comparison.py",
        "tune_sample_distance.py",
        "distributed_fleet.py",
        "retention_lifecycle.py",
    }


def test_quickstart():
    r = run_example("quickstart.py")
    assert r.returncode == 0, r.stderr[-500:]
    assert "restore file-3: OK" in r.stdout
    assert "real DER" in r.stdout


def test_fleet_backup():
    r = run_example("fleet_backup.py", "--machines", "2", "--generations", "2")
    assert r.returncode == 0, r.stderr[-500:]
    assert "hysteresis re-chunking" in r.stdout
    assert "fits in RAM" in r.stdout


@pytest.mark.slow
def test_algorithm_comparison():
    r = run_example("algorithm_comparison.py", "--ecs", "2048", "--sd", "16")
    assert r.returncode == 0, r.stderr[-500:]
    for algo in ("cdc", "bimodal", "subchunk", "sparse-indexing", "bf-mhd"):
        assert algo in r.stdout


@pytest.mark.slow
def test_tune_sample_distance():
    r = run_example("tune_sample_distance.py")
    assert r.returncode == 0, r.stderr[-500:]
    assert "sampling-distance sweep" in r.stdout


def test_retention_lifecycle():
    r = run_example("retention_lifecycle.py", "--days", "3")
    assert r.returncode == 0, r.stderr[-500:]
    assert "retention" in r.stdout
    assert "restore byte-identically" in r.stdout


def test_distributed_fleet():
    r = run_example("distributed_fleet.py")
    assert r.returncode == 0, r.stderr[-500:]
    assert "speedup" in r.stdout
    assert "cross-machine duplicates" in r.stdout
    assert ": OK, fsck clean" in r.stdout
