"""Self-tests of the e2e benchmark (``python -m pytest benchmarks/e2e/tests``).

They check the benchmark's own arithmetic and plumbing at ``--scale
smoke``; no number they produce is ever reported.
"""

from __future__ import annotations

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E_DIR))

from e2ebench import require_repro  # noqa: E402

require_repro()
