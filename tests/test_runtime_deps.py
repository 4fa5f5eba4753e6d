"""A runtime-only install imports every public surface.

``pyproject.toml`` declares ``numpy`` as the one runtime dependency;
scipy, hypothesis and pytest are ``dev`` extras, and cffi, installed on
some hosts, is no dependency at all (the chunking kernel loads through
``ctypes``).  A module under ``src/`` that imports one of them at module
level breaks every installation that did not ask for the extras, and CI
would not notice, because every job installs them.  So this test imports the package in
a fresh interpreter where none of them can be imported, and cuts
64 KiB, so the compiled chunking kernel's loader runs there too.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

BLOCKED = ("scipy", "hypothesis", "pytest", "cffi")

PROBE = textwrap.dedent(
    """
    import importlib.abc
    import sys

    class Block(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in {blocked!r}:
                raise ModuleNotFoundError(f"No module named {{name!r}} (blocked)")
            return None

    sys.meta_path.insert(0, Block())
    {first_import}
    import repro
    import repro.cli
    import repro.cluster
    import repro.service
    from repro.registry import available, resolve

    for name in available():
        resolve(name)
    # Importing compiles nothing; the first cut loads the chunking kernel
    # (or falls back to NumPy) with the standard library alone.
    from repro.chunking import VectorizedChunker, _cdc
    assert not _cdc._loaded
    VectorizedChunker().cut_points(bytes(range(256)) * 256)
    print(len(available()))
    """
)


def probe(first_import=""):
    return subprocess.run(
        [sys.executable, "-c", PROBE.format(blocked=BLOCKED, first_import=first_import)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_public_surfaces_import_without_dev_extras():
    done = probe()
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(repro.available())


def test_the_probe_really_blocks():
    done = probe(first_import="import scipy")
    assert done.returncode != 0
    assert "No module named 'scipy' (blocked)" in done.stderr
