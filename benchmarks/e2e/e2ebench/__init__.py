"""End-to-end benchmark of the dedup stack (library, service, cluster).

Everything here measures ``src/repro`` from outside: by timing calls
into its public functions and by wrapping its public seams
(``backend=``, the ``serve`` CLI).  Nothing under ``src/`` imports it.
See ``benchmarks/e2e/README.md`` for the metric glossary.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout the benchmark lives in.
REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_DIR = REPO_ROOT / "src"


def require_repro() -> None:
    """Put the checkout's ``src/`` on ``sys.path``; exit 2 if it is absent.

    The benchmark measures the program in *this* checkout, so it never
    falls back to an installed ``repro``: a directory holding only the
    benchmark's own files must fail before printing a result.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program to measure at {SRC_DIR}/repro", file=sys.stderr)
        raise SystemExit(2)
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
