"""Set-up: generate a workload's corpus, write it to disk, digest it.

The corpus's *shape* — file sizes, which bytes repeat where, every
edit's position and length — is drawn by ``BackupCorpus`` from the
constant ``SHAPE_SEED``.  ``--seed`` then re-codes the content: every
byte goes through a seeded permutation of the 256 byte values.  Equal
byte runs stay equal, so the duplication structure that defines a
workload is the same for every seed, while every chunk boundary and
every digest differs.  (Drawing the shape from ``--seed`` too made
stored bytes per user byte differ by 6 % between seeds — the spread of
the corpus, not of the program — see README "Steadiness".)

Runs in a child process of its own (``run.py --materialise DIR``) so
the measuring process never holds the corpus in RAM — its peak RSS is
the dedup work's — and so set-up can be repeated and timed as a whole.
The measuring process reads the inputs back from ``DIR/in/`` and the
expected SHA-1 of every file from ``DIR/manifest.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .settings import SHAPE_SEED, Workload

MANIFEST = "manifest.json"
INPUT_DIR = "in"


@dataclass(frozen=True)
class InputFile:
    file_id: str
    size: int
    sha1: str
    path: str


@dataclass(frozen=True)
class Unit:
    """One machine-generation backup: the unit of ingest work."""

    unit_id: str
    machine: str
    generation: int
    files: tuple[InputFile, ...]

    @property
    def size(self) -> int:
        return sum(f.size for f in self.files)


@dataclass(frozen=True)
class Corpus:
    units: tuple[Unit, ...]
    timings: dict[str, float]

    @property
    def user_bytes(self) -> int:
        return sum(u.size for u in self.units)

    @property
    def files(self) -> list[InputFile]:
        return [f for u in self.units for f in u.files]

    @property
    def generations(self) -> int:
        return 1 + max(u.generation for u in self.units)

    def head(self, share: float) -> Corpus:
        """The first ``share`` of the units, in backup order (at least one)."""
        return Corpus(self.units[: max(1, round(len(self.units) * share))], self.timings)


def byte_permutation(seed: int) -> bytes:
    """The seed's ``bytes.translate`` table: a permutation of 0..255."""
    values = list(range(256))
    random.Random(seed).shuffle(values)
    return bytes(values)


def materialise(workload: Workload, seed: int, out_dir: Path, smoke: bool = False) -> None:
    """Generate the corpus under ``out_dir`` and write its manifest."""
    from repro.workloads import BackupCorpus, CorpusConfig

    shape = workload.smoke_corpus if smoke else workload.corpus
    table = byte_permutation(seed)
    in_dir = out_dir / INPUT_DIR
    gen_s = write_s = digest_s = 0.0
    units: dict[str, dict[str, Any]] = {}
    t = time.perf_counter()
    # Iterating the corpus generates it lazily, one generation at a time.
    for f in BackupCorpus(CorpusConfig(seed=SHAPE_SEED, **shape)):
        data = f.data.translate(table)
        gen_s += time.perf_counter() - t
        machine, gen, _rest = f.file_id.split("/", 2)
        t = time.perf_counter()
        path = in_dir / f.file_id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        write_s += time.perf_counter() - t
        t = time.perf_counter()
        digest = hashlib.sha1(data).hexdigest()
        digest_s += time.perf_counter() - t
        unit = units.setdefault(
            f"{machine}/{gen}",
            {"machine": machine, "generation": int(gen[3:]), "files": []},
        )
        unit["files"].append([f.file_id, f.size, digest])
        t = time.perf_counter()
    doc = {
        "workload": workload.name,
        "seed": seed,
        "units": [{"id": uid, **u} for uid, u in units.items()],
        "timings": {"gen_s": gen_s, "write_s": write_s, "digest_s": digest_s},
    }
    (out_dir / MANIFEST).write_text(json.dumps(doc))


def load(out_dir: Path) -> Corpus:
    """The corpus a :func:`materialise` child left under ``out_dir``."""
    doc = json.loads((out_dir / MANIFEST).read_text())
    in_dir = out_dir / INPUT_DIR
    units = tuple(
        Unit(
            unit_id=u["id"],
            machine=u["machine"],
            generation=u["generation"],
            files=tuple(
                InputFile(fid, size, sha1, os.path.join(in_dir, fid))
                for fid, size, sha1 in u["files"]
            ),
        )
        for u in doc["units"]
    )
    return Corpus(units=units, timings=doc["timings"])
